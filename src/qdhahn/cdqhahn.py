"""The four-parameter flagship family.

Parameters (q, A, B, C, D) drive the recurrence

    X_{n+1} - (z - a_n) X_n + b_n^2 X_{n-1} = 0,
    a_n   = (1/A + 1/B + 1/C + 1/D) q^n - (1+q) q^(2n-1),
    b_n^2 = (q / ABCD) (1 - A q^(n-1)) (1 - B q^(n-1))
                       (1 - C q^(n-1)) (1 - D q^(n-1)),

symmetric in A, B, C, D.  It is one of the four cut families of
``family``: its growth rates lambda_-+ solve lambda^2 - z lambda +
q/(ABCD) = 0, the spectral variable is x = alpha z with alpha =
sqrt(ABCD/q)/2, and u = 2 alpha lambda_+ (|u| >= 1 off the cut, u on the
unit circle on it).  ``spectral_point`` and ``SpectralPoint`` live in
``family`` and serve all four; they are re-exported here.

Solution labels (all satisfy the recurrence; pairwise independent):

    "minimal"   decays like lambda_-^n; the subdominant solution off cut
    "dominant"  grows like lambda_+^n
    "lead-a"    series led by A q^n with companion pair (A, B)
    "lead-b"    series led by B q^n with companion pair (A, B)
    "lead-c"    series led by C q^n with companion pair (B, C)
    "lead-d"    series led by D q^n with companion pair (B, D)
    "inverted"  reciprocal-parameter series; constant multiple of lead-c

The closed forms are declared once on ``CDQHParams`` and evaluated
through the closed-form layer of ``family``, which every family shares.
``solution``, ``cf_stieltjes``, ``explicit_poly``, ``explicit_poly_ir``
(the paper's double sums; P_n itself is ``family.poly``) and ``weight``
here (like ``limits.limit_solution``, ``limit_cf``, ``limit_poly`` and
``limit_weight``) are thin functions over that layer; README.md says
why they stay.
A bare float overflow or division by zero raises Overflow or
ZeroDivisor, and a vanished denominator series of a form of 1/CF
raises PoleHit.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

from . import family, qseries
from .errors import ZeroDivisor
from .family import (ABOVE, CutFamily, SpectralPoint, cf_denominator, solution_scaled,
                     solution_value, spectral_point)
from .qseries import (
    phi32,
    qpoch,
    qpoch_multi,
    support_points,
    term_ratio,
    weight_density,
)
from .recurrence import Scaled
from .recurrence import scaled_power as _power, scaled_qpower as _qpower


class CDQHParams(CutFamily):
    """The flagship family (see ``family`` for its declared members and
    its SpectralPoint)."""

    family_id = "cdqh"
    param_names = ("A", "B", "C", "D")

    def _coeff_rows(self, lo: int, n: int):
        q, A, B, C, D = self.q, self.A, self.B, self.C, self.D
        s, c, g = 1 / A + 1 / B + 1 / C + 1 / D, 1 + q, q / (A * B * C * D)
        a, b_sq = [], []
        for k in range(lo, n):
            a.append(s * q**k - c * q ** (2 * k - 1))
            t = q ** (k - 1)
            b_sq.append(g * ((1.0 + 0.0j) * (1 - A * t) * (1 - B * t) * (1 - C * t) * (1 - D * t)))
        return a, b_sq

    @property
    def alpha(self) -> complex:
        return 0.5 * cmath.sqrt(self.A * self.B * self.C * self.D / self.q)

    def permuted(self, order: str) -> "CDQHParams":
        """New params with (A, B, C, D) rearranged per ``order``, a
        4-string over the letters ABCD."""
        vals = {name: getattr(self, name) for name in self.param_names}
        picked = [vals[ch] for ch in order]
        return CDQHParams(self.q, *picked)

    def _growth_product(self):
        return self.q / (self.A * self.B * self.C * self.D)

    def _growth_series(self, lam, n) -> Scaled:
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
        )
        return _power(lam, n) * (pref * series)

    def _pair_series(self, point, n, lead, mate, other1, other2) -> Scaled:
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
        )
        return _power(lead * mate, -n) * (pref * series)

    def _inverted(self, point, n) -> Scaled:
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
        )
        sign = Scaled((-1.0 + 0.0j) ** n, 0.0)
        return (
            sign
            * _power(q / (A * B * D), n)
            * _qpower(q, -n * (n - 1) / 2.0)
            * (pref * series)
        )

    _solutions = {
        "minimal": lambda f, pt, n: f._growth_series(pt.lam_minus, n),
        "dominant": lambda f, pt, n: f._growth_series(pt.lam_plus, n),
        "lead-a": lambda f, pt, n: f._pair_series(pt, n, f.A, f.B, f.C, f.D),
        "lead-b": lambda f, pt, n: f._pair_series(pt, n, f.B, f.A, f.C, f.D),
        "lead-c": lambda f, pt, n: f._pair_series(pt, n, f.C, f.B, f.A, f.D),
        "lead-d": lambda f, pt, n: f._pair_series(pt, n, f.D, f.B, f.C, f.A),
        "inverted": _inverted,
    }

    def _ratio_denominator(self, lam):
        """phi32(BC lam, B/q, C/q, BCD lam/q, ABC lam/q) (at every point of
        an array of lam): the ratio form's denominator at lam = lambda_-,
        whose sign changes off the cut are poles of the transform, and at
        the two boundary roots the factors of the weight's bracket."""
        q = self.q
        A, B, C, D = self.A, self.B, self.C, self.D
        return phi32(B * C * lam, B / q, C / q, B * C * D * lam / q, A * B * C * lam / q, q)

    def _cf_ratio(self, point):
        q = self.q
        A, B, C, D = self.A, self.B, self.C, self.D
        lam = point.lam_minus
        pref = (A * B * C * D * lam / q) / (
            (1 - B * C * D * lam / q) * (1 - A * B * C * lam / q)
        )
        num = phi32(B * C * lam, B, C, B * C * D * lam, A * B * C * lam, q)
        return pref * num / cf_denominator(self._ratio_denominator(lam))

    def _cf_ratio_alt(self, point):
        q = self.q
        A, B, C, D = self.A, self.B, self.C, self.D
        lam, lam_p = point.lam_minus, point.lam_plus
        pref = 1.0 / (lam_p * (1 - 1 / (A * lam_p)) * (1 - 1 / (D * lam_p)))
        num = phi32(B * C * lam, B, C, q / (A * lam_p), q / (D * lam_p), q)
        den = phi32(B * C * lam, B / q, C / q, 1 / (A * lam_p), 1 / (D * lam_p), q)
        return pref * num / cf_denominator(den)

    def _cf_pincherle(self, point):
        x0 = solution_scaled(self, point, "minimal", 0)
        xm1 = solution_scaled(self, point, "minimal", -1)
        return x0.ratio(xm1) / self.b_sq_coeff(0)

    def _cf_reduced(self, point):
        _require_reduced(self)
        q = self.q
        A, B, D = self.A, self.B, self.D
        lam = point.lam_minus
        pref = (A * B * D * lam) / ((1 - B * D * lam) * (1 - A * B * lam))
        num = phi32(B * q * lam, B, q, D * B * q * lam, A * B * q * lam, q)
        return pref * num

    def _cf_reduced_product(self, point):
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
        pref = (u / ta) ** n * qpoch_multi([A, D, ta * q / (A * D * u)], q, n) / qpoch(q, q, n)
        outer = ([1 / q**n, ta * u / B, ta * u / C], [A * D * u / ta / q**n, A, D],
                 A * D / (ta * u), 0)
        inner = ([A / q, D / q, A * D * u / ta], [q, ta * u / B, ta * u / C],
                 ta * u * q / (A * D), 0)
        return pref, outer, inner

    def _poly_alt(self, point, n):
        q = self.q
        A, B, C, D = self.A, self.B, self.C, self.D
        u = point.u
        root = cmath.sqrt(B * C * q / (A * D))
        pref = qpoch_multi([B, C], q, n) / (B * C) ** n
        outer = [q ** (-n), root * u, root / u], [q, B, C], q, 0
        total = 0.0 + 0.0j
        outer_t = 1.0 + 0.0j
        for k in range(n + 1):
            if k > 0:
                outer_t *= term_ratio(q, k, outer)
            inner = ([A / q, D / q, q ** (k + 1), q ** (k - n)],
                     [q, C * q**k, B * q**k, q ** (-n)], B * C * q / (A * D), 0)
            inner_total = inner_t = 1.0 + 0.0j
            for j in range(1, n - k + 1):
                inner_t *= term_ratio(q, j, inner)
                inner_total += inner_t
            total += outer_t * inner_total
        return pref * total

    def _weight_parts(self, x):
        _require_real_params(self)
        q = self.q
        A, B, C, D = self.A, self.B, self.C, self.D
        point = spectral_point(self, x=x, side=ABOVE)
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
        bracket = family.cut_bracket(self, point, self._ratio_denominator)
        return numerator, denominator, bracket


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


# ---------------------------------------------------------------------------
# Closed-form solutions.
# ---------------------------------------------------------------------------


def solution(params, point, which: str, n: int) -> complex:
    """Value of the named closed-form solution at index n, at a
    SpectralPoint or a number z off the cut."""
    return solution_value(params, point, which, n)


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


def cf_stieltjes(params: CDQHParams, point: SpectralPoint, form: str | None = None) -> complex:
    """1/CF(z) for the J-fraction attached to the recurrence, at a
    SpectralPoint or a number z off the cut.

    Forms: "ratio" (quotient of two balanced series; the default, also
    for None), "ratio-alt" (identical value, prefactor written through
    lambda_+), "pincherle" (from the minimal solution at indices 0 and
    -1), and the C = q reductions "reduced" (single balanced series) and
    "reduced-product" (explicit infinite-product numerator over the
    pole-carrying products).
    """
    return family.cf(params, point, form)


# ---------------------------------------------------------------------------
# Weight function of the absolutely continuous spectrum on (-1, 1).
# ---------------------------------------------------------------------------


def _require_real_params(params: CDQHParams):
    for name in params.param_names:
        if abs(getattr(params, name).imag) > 0:
            raise ValueError("the weight needs real parameters")
    if (params.A * params.B * params.C * params.D / params.q).real <= 0:
        raise ValueError("the weight needs real positive ABCD/q")


def weight(params: CDQHParams, x: float) -> float:
    """Density of the absolutely continuous spectral part at x in (-1, 1),
    of mass 1 when there are no mass points.  A one-dimensional array of
    x gives the density at every point, in one pass of each series kernel."""
    return family.weight(params, x)


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
    """Double-sum closed form of the monic polynomial P_n(z), at a
    SpectralPoint or a number z (on the cut it takes the side above)."""
    return family.explicit_poly(params, point, n)


def explicit_poly_ir(params: CDQHParams, point: SpectralPoint, n: int) -> complex:
    """A second double sum for P_n(z), manifestly symmetric under
    u <-> 1/u, taking its point as ``explicit_poly`` does."""
    return family.poly_alt(params, point, n)


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


def dual_qhahn_reduction(params: CDQHParams, point: SpectralPoint, n: int) -> complex:
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
    series = qseries._phi((q ** (-n), A * B * u / ta, A * B / (ta * u)), (A, B), q, q)
    return pref * series
