"""The four-parameter flagship family.

Parameters (q, A, B, C, D) drive the recurrence

    X_{n+1} - (z - a_n) X_n + b_n^2 X_{n-1} = 0,
    a_n   = (1/A + 1/B + 1/C + 1/D) q^n - (1+q) q^(2n-1),
    b_n^2 = (q / ABCD) (1 - A q^(n-1)) (1 - B q^(n-1))
                       (1 - C q^(n-1)) (1 - D q^(n-1)),

symmetric in A, B, C, D.  The spectral variable is x = alpha z with
alpha = sqrt(ABCD/q)/2; the two growth rates lambda_-+ solve
lambda^2 - z lambda + q/(ABCD) = 0 and pair with u = 2 alpha lambda_+
(|u| >= 1 off the cut, u on the unit circle on it).

Solution labels (all satisfy the recurrence; pairwise independent):

    "minimal"   decays like lambda_-^n; the subdominant solution off cut
    "dominant"  grows like lambda_+^n
    "lead-a"    series led by A q^n with companion pair (A, B)
    "lead-b"    series led by B q^n with companion pair (A, B)
    "lead-c"    series led by C q^n with companion pair (B, C)
    "lead-d"    series led by D q^n with companion pair (B, D)
    "inverted"  reciprocal-parameter series; constant multiple of lead-c
"""

from __future__ import annotations

import cmath
import operator
from dataclasses import dataclass

import numpy as np

from . import qseries
from . import recurrence
from .errors import BranchAmbiguous, UnknownFamily, ZeroDivisor
from .qseries import (
    DEFAULT_POLICY,
    phi32,
    qpoch,
    qpoch_multi,
    sqrt,
    support_points,
    weight_density,
)
from .recurrence import Scaled, SolutionSequence
from .recurrence import scaled_power as _power, scaled_qpower as _qpower

OFF_CUT = "off-cut"
ABOVE = "above"
BELOW = "below"


@dataclass(frozen=True)
class CDQHParams:
    """The flagship family.  It declares the members every family
    declares (see ``limits``), "minimal" and "ratio" first.  Its closed
    forms take a SpectralPoint, so it adds the point construction
    (``point_at`` with a side on the cut, ``z_at`` from x = alpha z),
    and a "poly-alt" entry point, the two-index double sum."""

    q: float
    A: complex
    B: complex
    C: complex
    D: complex

    family_id = "cdqh"
    param_names = ("A", "B", "C", "D")

    def __post_init__(self):
        object.__setattr__(self, "q", qseries._check_q(self.q))
        for name in self.param_names:
            object.__setattr__(self, name, complex(getattr(self, name)))
        if self.A * self.B * self.C * self.D == 0:
            raise ValueError("parameters A, B, C, D must be nonzero")

    def a_coeff(self, n: int) -> complex:
        q = self.q
        s = 1 / self.A + 1 / self.B + 1 / self.C + 1 / self.D
        return s * q**n - (1 + q) * q ** (2 * n - 1)

    def b_sq_coeff(self, n: int) -> complex:
        q = self.q
        prod = 1.0 + 0.0j
        for p in (self.A, self.B, self.C, self.D):
            prod *= 1 - p * q ** (n - 1)
        return q / (self.A * self.B * self.C * self.D) * prod

    @property
    def alpha(self) -> complex:
        return 0.5 * cmath.sqrt(self.A * self.B * self.C * self.D / self.q)

    def permuted(self, order: str) -> "CDQHParams":
        """New params with (A, B, C, D) rearranged per ``order``, a
        4-string over the letters ABCD."""
        vals = {name: getattr(self, name) for name in self.param_names}
        picked = [vals[ch] for ch in order]
        return CDQHParams(self.q, *picked)

    def point_at(self, z, side=None, single_valued=False) -> "SpectralPoint":
        """The spectral point at z.  Without a side it must lie off the
        cut, except for a form that is single valued across the cut (a
        polynomial), which there takes the side above."""
        try:
            return spectral_point(self, z=z, side=side or OFF_CUT)
        except BranchAmbiguous:
            if side is None and single_valued:
                return spectral_point(self, z=z, side=ABOVE)
            raise

    def z_at(self, x) -> complex:
        """The z of the rescaled point x = alpha z, off the cut."""
        return spectral_point(self, x=x).z

    def entry_points(self):
        return {"poly": explicit_poly, "poly-alt": explicit_poly_ir, "solution": solution,
                "cf": cf_stieltjes, "weight": weight}

    def _growth_series(self, lam, n, policy) -> Scaled:
        q = self.q
        A, B, C, D = self.A, self.B, self.C, self.D
        qn = q**n
        pref = qpoch_multi([A, B, C, D], q, n) / qpoch_multi(
            [B * C * D * lam, A * B * C * lam], q, n
        )
        series = phi32(
            B * C * lam,
            B * qn,
            C * qn,
            B * C * D * lam * qn,
            A * B * C * lam * qn,
            q,
            policy,
        )
        return _power(lam, n) * (pref * series)

    def _pair_series(self, point, n, policy, lead, mate, other1, other2) -> Scaled:
        """Common shape of the lead-* solutions: prefactor (lead, mate)_n /
        (lead*mate)^n times a balanced series led by lead*q^n."""
        q = self.q
        qn = q**n
        pref = qpoch_multi([lead, mate], q, n)
        series = phi32(
            lead * qn,
            lead * mate * point.lam_plus,
            lead * mate * point.lam_minus,
            lead * q / other1,
            lead * q / other2,
            q,
            policy,
        )
        return _power(lead * mate, -n) * (pref * series)

    def _inverted(self, point, n, policy) -> Scaled:
        q = self.q
        A, B, C, D = self.A, self.B, self.C, self.D
        lam_p, lam_m = point.lam_plus, point.lam_minus
        pref = qpoch_multi([A * B * D * lam_p / q, A * B * D * lam_m / q], q, n)
        series = phi32(
            q ** (1 - n) / B,
            q ** (1 - n) / A,
            q ** (1 - n) / D,
            C * lam_p * q ** (1 - n),
            C * lam_m * q ** (1 - n),
            q,
            policy,
        )
        sign = Scaled((-1.0 + 0.0j) ** n, 0.0)
        return (
            sign
            * _power(q / (A * B * D), n)
            * _qpower(q, -n * (n - 1) / 2.0)
            * (pref * series)
        )

    _solutions = {
        "minimal": lambda f, pt, n, p: f._growth_series(pt.lam_minus, n, p),
        "dominant": lambda f, pt, n, p: f._growth_series(pt.lam_plus, n, p),
        "lead-a": lambda f, pt, n, p: f._pair_series(pt, n, p, f.A, f.B, f.C, f.D),
        "lead-b": lambda f, pt, n, p: f._pair_series(pt, n, p, f.B, f.A, f.C, f.D),
        "lead-c": lambda f, pt, n, p: f._pair_series(pt, n, p, f.C, f.B, f.A, f.D),
        "lead-d": lambda f, pt, n, p: f._pair_series(pt, n, p, f.D, f.B, f.C, f.A),
        "inverted": _inverted,
    }

    def _ratio_denominator(self, lam, policy=DEFAULT_POLICY):
        """phi32(BC lam, B/q, C/q, BCD lam/q, ABC lam/q) (at every point of
        an array of lam): the ratio form's denominator at lam = lambda_-,
        whose sign changes off the cut are poles of the transform, and at
        the two boundary roots the factors of the weight's bracket."""
        q = self.q
        A, B, C, D = self.A, self.B, self.C, self.D
        return phi32(B * C * lam, B / q, C / q, B * C * D * lam / q, A * B * C * lam / q, q,
                     policy)

    def _cf_ratio(self, point, policy):
        q = self.q
        A, B, C, D = self.A, self.B, self.C, self.D
        lam = point.lam_minus
        pref = (A * B * C * D * lam / q) / (
            (1 - B * C * D * lam / q) * (1 - A * B * C * lam / q)
        )
        num = phi32(B * C * lam, B, C, B * C * D * lam, A * B * C * lam, q, policy)
        return _transform_ratio(pref, num, self._ratio_denominator(lam, policy))

    def _cf_ratio_alt(self, point, policy):
        q = self.q
        A, B, C, D = self.A, self.B, self.C, self.D
        lam, lam_p = point.lam_minus, point.lam_plus
        pref = 1.0 / (lam_p * (1 - 1 / (A * lam_p)) * (1 - 1 / (D * lam_p)))
        num = phi32(B * C * lam, B, C, q / (A * lam_p), q / (D * lam_p), q, policy)
        den = phi32(
            B * C * lam, B / q, C / q, 1 / (A * lam_p), 1 / (D * lam_p), q, policy
        )
        return _transform_ratio(pref, num, den)

    def _cf_pincherle(self, point, policy):
        x0 = solution_scaled(self, point, "minimal", 0, policy)
        xm1 = solution_scaled(self, point, "minimal", -1, policy)
        return x0.ratio(xm1) / self.b_sq_coeff(0)

    def _cf_reduced(self, point, policy):
        _require_reduced(self)
        q = self.q
        A, B, D = self.A, self.B, self.D
        lam = point.lam_minus
        pref = (A * B * D * lam) / ((1 - B * D * lam) * (1 - A * B * lam))
        num = phi32(B * q * lam, B, q, D * B * q * lam, A * B * q * lam, q, policy)
        return pref * num

    def _cf_reduced_product(self, point, policy):
        _require_reduced(self)
        q = self.q
        A, B, D = self.A, self.B, self.D
        lam = point.lam_minus
        pref = (
            A
            * B
            * D
            * lam
            * qpoch_multi([q, A * B * D * lam, A * B * D * q * lam * lam], q)
            / qpoch_multi([B * D * lam, A * B * lam, A * D * lam], q)
        )
        series = phi32(
            B * D * lam,
            A * B * lam,
            A * D * lam,
            A * B * D * lam,
            A * B * D * q * lam * lam,
            q,
            policy,
        )
        return pref * series

    _cf_forms = {
        "ratio": _cf_ratio,
        "ratio-alt": _cf_ratio_alt,
        "pincherle": _cf_pincherle,
        "reduced": _cf_reduced,
        "reduced-product": _cf_reduced_product,
    }

    def _poly_terms(self, point, n):
        q = self.q
        A, B, C, D = self.A, self.B, self.C, self.D
        u = point.u
        ta = 2 * point.alpha

        def ratio(k, nums, dens, step):
            """step * prod(1 - p q^(k-1), p in nums) / (the same over dens)."""
            num = 1.0 + 0.0j
            for p in nums:
                num *= 1 - p * q ** (k - 1)
            den = 1.0 + 0.0j
            for p in dens:
                den *= 1 - p * q ** (k - 1)
            if den == 0:
                raise ZeroDivisor("explicit polynomial denominator vanished")
            return num / den * step

        pref = (u / ta) ** n * qpoch_multi([A, D, ta * q / (A * D * u)], q, n) / qpoch(q, q, n)
        outer = [1 / q**n, ta * u / B, ta * u / C], [A * D * u / ta / q**n, A, D], A * D / (ta * u)
        inner = [A / q, D / q, A * D * u / ta], [q, ta * u / B, ta * u / C], ta * u * q / (A * D)
        return pref, lambda ell: ratio(ell, *outer), lambda j: ratio(j, *inner)

    def _weight_parts(self, point, policy):
        q = self.q
        A, B, C, D = self.A, self.B, self.C, self.D
        u = point.u
        two_alpha = 2 * point.alpha
        numerator = qpoch_multi([A, B, C, D], q) * qpoch_multi([u * u, 1 / (u * u)], q)
        denominator = qpoch_multi(
            [
                two_alpha / (A * u),
                two_alpha * u / A,
                two_alpha / (D * u),
                two_alpha * u / D,
                two_alpha * q / (B * C * u),
                two_alpha * q * u / (B * C),
            ],
            q,
        )
        bracket = (self._ratio_denominator(point.lam_minus, policy)
                   * self._ratio_denominator(point.lam_plus, policy))
        return numerator, denominator, bracket


SOLUTIONS = tuple(CDQHParams._solutions)
CF_FORMS = tuple(CDQHParams._cf_forms)


@dataclass(frozen=True)
class BirthDeathRates:
    lambda_n: complex
    mu_n: complex


def birth_death_rates(params: CDQHParams, n: int) -> BirthDeathRates:
    """Birth and death rates whose sum reproduces a_n up to the constant
    1/(AB) + q/(CD)."""
    q = params.q
    lam = (1 - params.A * q**n) * (1 - params.B * q**n) / (params.A * params.B)
    mu = (
        q
        * (1 - params.C * q ** (n - 1))
        * (1 - params.D * q ** (n - 1))
        / (params.C * params.D)
    )
    return BirthDeathRates(lam, mu)


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


def spectral_point(params: CDQHParams, z=None, x=None, side: str = OFF_CUT) -> SpectralPoint:
    """Spectral data at z (or x = alpha z).

    Off the cut lam_minus is the root of smaller modulus; on the cut the
    side flag selects the boundary value the off-cut branch tends to:
    approaching from above sends the small root to (x - i sqrt(1-x^2)) /
    (2 alpha), from below to its conjugate.  An array of z (or x) gives
    the data at every point, as arrays.
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
    prod = params.q / (params.A * params.B * params.C * params.D)
    if side == OFF_CUT:
        small, large = recurrence.characteristic_roots(z, prod)
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


# ---------------------------------------------------------------------------
# Closed-form solutions.
# ---------------------------------------------------------------------------


def solution_scaled(
    params: CDQHParams,
    point: SpectralPoint,
    which: str,
    n: int,
    policy=DEFAULT_POLICY,
) -> Scaled:
    if which not in SOLUTIONS:
        raise UnknownFamily(f"unknown solution label {which!r}")
    return params._solutions[which](params, point, n, policy)


def solution(params, point, which: str, n: int, policy=DEFAULT_POLICY) -> complex:
    """Value of the named closed-form solution at index n."""
    return solution_scaled(params, point, which, n, policy).value


def solution_sequence(
    params, point, which: str, start: int, stop: int, policy=DEFAULT_POLICY
) -> SolutionSequence:
    """Closed-form values over [start, stop], evaluated independently at
    each index (never by running the recurrence)."""
    return SolutionSequence.from_function(
        lambda n: solution_scaled(params, point, which, n, policy),
        start,
        stop,
        provenance=f"closed-form:{which}",
    )


def minimal_solution(params, point, n: int, policy=DEFAULT_POLICY) -> complex:
    """The subdominant solution; requires a strict branch ordering."""
    if abs(point.lam_minus) >= abs(point.lam_plus) * (1 - 1e-14) and point.side == OFF_CUT:
        raise BranchAmbiguous("minimal solution needs |lambda_-| < |lambda_+|")
    return solution(params, point, "minimal", n, policy)


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


def three_term_coeffs(params: CDQHParams, point: SpectralPoint):
    """Infinite-product coefficients (c_dom, c_lead_c, c_lead_a) of the
    linear relation c_dom * dominant - c_lead_c * lead-c = c_lead_a * lead-a."""
    q = params.q
    A, B, C, D = params.A, params.B, params.C, params.D
    lp, lm = point.lam_plus, point.lam_minus
    c1 = qpoch_multi([A * B * C * lp, A * C * lm, q / D, A / C], q)
    c4 = qpoch_multi([A, A * lm, A * B * lp, C * q / D], q)
    c2 = qpoch_multi(
        [C, C * lm, A / C, A * q / D, B * C * lp, C * D * lp, A * B * D * lp], q
    ) / qpoch_multi([C / A, A * D * lp, B * C * D * lp], q)
    return c1, c4, c2


# ---------------------------------------------------------------------------
# Stieltjes transform of the spectral measure (the reciprocal of the
# continued fraction) in its several closed forms.
# ---------------------------------------------------------------------------


def _require_reduced(params: CDQHParams):
    if abs(params.C - params.q) > 1e-12:
        raise ValueError("this form requires C = q")


def cf_stieltjes(params: CDQHParams, point: SpectralPoint, form: str = "ratio",
                 policy=DEFAULT_POLICY) -> complex:
    """1/CF(z) for the J-fraction attached to the recurrence.

    Forms: "ratio" (quotient of two balanced series), "ratio-alt"
    (identical value, prefactor written through lambda_+), "pincherle"
    (from the minimal solution at indices 0 and -1), and the C = q
    reductions "reduced" (single balanced series) and "reduced-product"
    (explicit infinite-product numerator over the pole-carrying products).
    """
    if form not in CF_FORMS:
        raise ValueError(f"unknown form {form!r}; expected one of {CF_FORMS}")
    return params._cf_forms[form](params, point, policy)


def _transform_ratio(pref, num, den):
    if den == 0:
        raise ZeroDivisor("transform pole: denominator series vanished")
    return pref * num / den


# ---------------------------------------------------------------------------
# Weight function of the absolutely continuous spectrum on (-1, 1).
# ---------------------------------------------------------------------------


def _require_real_params(params: CDQHParams):
    for name in params.param_names:
        if abs(getattr(params, name).imag) > 0:
            raise ValueError("the weight needs real parameters")
    if (params.A * params.B * params.C * params.D / params.q).real <= 0:
        raise ValueError("the weight needs real positive ABCD/q")


def weight_factors(params: CDQHParams, x: float, policy=DEFAULT_POLICY):
    """The two boundary series whose product forms the weight bracket.

    For real parameters they are complex conjugates of each other.  An
    array of x gives both at every point.
    """
    point = spectral_point(params, x=x, side=ABOVE)
    return tuple(params._ratio_denominator(lam, policy)
                 for lam in (point.lam_minus, point.lam_plus))


def weight(params: CDQHParams, x: float, policy=DEFAULT_POLICY) -> float:
    """Density of the absolutely continuous spectral component at
    x in (-1, 1) (unnormalized).  A one-dimensional array of x gives the
    density at every point, in one pass of each series kernel."""
    _require_real_params(params)
    x = support_points(x)
    point = spectral_point(params, x=x, side=ABOVE)
    return weight_density(x, *params._weight_parts(point, policy))


def weight_reduced(params: CDQHParams, x: float) -> float:
    """C = q closed form of the weight: pure infinite products (at every
    point of a one-dimensional array of x)."""
    _require_reduced(params)
    _require_real_params(params)
    q = params.q
    A, B, D = params.A, params.B, params.D
    x = support_points(x)
    point = spectral_point(params, x=x, side=ABOVE)
    u = point.u
    r1 = cmath.sqrt(B * D / A)
    r2 = cmath.sqrt(A * B / D)
    r3 = cmath.sqrt(A * D / B)
    numerator = qpoch_multi([A, B, q, D], q) * qpoch_multi([u * u, 1 / (u * u)], q)
    denominator = qpoch_multi(
        [r1 / u, r1 * u, r2 / u, r2 * u, r3 / u, r3 * u], q
    )
    return weight_density(x, numerator, denominator)


# ---------------------------------------------------------------------------
# Explicit monic polynomials and the generating function.
# ---------------------------------------------------------------------------


def explicit_poly(params: CDQHParams, point: SpectralPoint, n: int) -> complex:
    """Double-sum closed form of the monic polynomial P_n(z); Overflow or
    ZeroDivisor once its terms leave the double range."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if point.u == 0:
        raise ZeroDivisor("u must be nonzero")
    return qseries.double_sum(n, lambda: params._poly_terms(point, n))


def explicit_poly_ir(params: CDQHParams, point: SpectralPoint, n: int) -> complex:
    """Alternative double sum for P_n(z); manifestly symmetric under
    u <-> 1/u.  Overflow or ZeroDivisor once its terms leave the double
    range."""
    if n < 0:
        raise ValueError("n must be >= 0")
    q = params.q
    A, B, C, D = params.A, params.B, params.C, params.D
    u = point.u
    root = cmath.sqrt(B * C * q / (A * D))

    def evaluate():
        pref = qpoch_multi([B, C], q, n) / (B * C) ** n
        total = 0.0 + 0.0j
        outer_t = 1.0 + 0.0j
        for k in range(n + 1):
            if k > 0:
                num = (
                    (1 - q ** (-n) * q ** (k - 1))
                    * (1 - root * u * q ** (k - 1))
                    * (1 - root / u * q ** (k - 1))
                )
                den = (1 - q**k) * (1 - B * q ** (k - 1)) * (1 - C * q ** (k - 1))
                if den == 0:
                    raise ZeroDivisor("explicit polynomial denominator vanished")
                outer_t *= num / den * q
            inner_total = 0.0 + 0.0j
            inner_t = 1.0 + 0.0j
            for j in range(n - k + 1):
                if j > 0:
                    num = (
                        (1 - A / q * q ** (j - 1))
                        * (1 - D / q * q ** (j - 1))
                        * (1 - q ** (k + 1) * q ** (j - 1))
                        * (1 - q ** (k - n) * q ** (j - 1))
                    )
                    den = (
                        (1 - q**j)
                        * (1 - C * q**k * q ** (j - 1))
                        * (1 - B * q**k * q ** (j - 1))
                        * (1 - q ** (-n) * q ** (j - 1))
                    )
                    if den == 0:
                        raise ZeroDivisor("explicit polynomial denominator vanished")
                    inner_t *= num / den * (B * C * q / (A * D))
                inner_total += inner_t
            total += outer_t * inner_total
        return pref * total

    return qseries.double_range(evaluate, "two-index polynomial double sum")


def genfun_coeffs(params: CDQHParams, point: SpectralPoint, n_max: int):
    """Taylor coefficients of the generating function built from the
    first-order auxiliary recursion.

    Coefficient n equals (2 alpha)^n P_n(z) / ((A)_n (D)_n); the list is
    assembled by solving the auxiliary recursion for f_n and taking the
    Cauchy product with the q-binomial expansion of the prefactor.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    q = params.q
    A, B, C, D = params.A, params.B, params.C, params.D
    u = point.u
    ta = 2 * point.alpha
    f = [1.0 + 0.0j]
    tail = 1.0 + 0.0j  # (A D u / 2 alpha; q)_n / (q; q)_n, advanced below
    for n in range(1, n_max + 1):
        lead = (1 - A * q ** (n - 1)) * (1 - D * q ** (n - 1))
        if lead == 0:
            raise ZeroDivisor("auxiliary recursion hit a parameter collision")
        tail *= (1 - A * D * u / ta * q ** (n - 1)) / (1 - q**n)
        drive = (ta * q / (A * D)) ** n * (1 - A / q) * (1 - D / q) * tail
        hom = (
            (1 / u)
            * (1 - ta * u / B * q ** (n - 1))
            * (1 - ta * u / C * q ** (n - 1))
            * f[n - 1]
        )
        f.append((hom + drive) / lead)
    # prefactor series coefficients via the q-binomial theorem
    c = [1.0 + 0.0j]
    for m in range(1, n_max + 1):
        c.append(
            c[m - 1] * (1 - ta * q / (A * D * u) * q ** (m - 1)) / (1 - q**m) * u
        )
    return [
        sum(c[m] * f[n - m] for m in range(n + 1)) for n in range(n_max + 1)
    ]


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


def dual_qhahn_reduction(params: CDQHParams, point: SpectralPoint, n: int,
                         policy=DEFAULT_POLICY) -> complex:
    """C = q specialization: terminating balanced series that matches the
    classical (non-associated) polynomials up to a power of 2 alpha."""
    _require_reduced(params)
    if n < 0:
        raise ValueError("n must be >= 0")
    q = params.q
    A, B = params.A, params.B
    u = point.u
    ta = 2 * point.alpha
    pref = qpoch_multi([A, B], q, n) / (A * B) ** n
    series = qseries._phi(
        (q ** (-n), A * B * u / ta, A * B / (ta * u)),
        (A, B),
        q,
        q,
        policy,
    )
    return pref * series
