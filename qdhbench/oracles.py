"""Independent reference values for the benchmark's correctness gates.

Nothing here calls the library: the recurrence coefficients of all
twelve families are written out again, the forward recurrence is run in
plain double precision or in mpmath at 40 digits, and the spectral
weights are re-evaluated from their product/series form in mpmath.
Tolerances are the acceptance suite's (tests/test_acceptance.py).
"""

from __future__ import annotations

import math

import mpmath

RESIDUAL_TOL = 1e-9  # closed-form solutions satisfy the recurrence
CF_TOL = 1e-8  # closed-form continued fraction against the truncated J-fraction
POLY_TOL = 1e-9  # polynomial values against the forward recurrence
WEIGHT_TOL = 1e-9  # weight against its 40-digit evaluation
ORTHO_TOL = 1e-6  # Gram matrix off-diagonals, relative (the orthogonality check's)
MP_DIGITS = 40
# error floor: a zero error still reads as "exact to double rounding"
ERR_FLOOR = 1e-17


def coeffs(p, n):
    """(a_n, b_n^2) of the family described by ``p``; ``p`` may hold
    floats or mpmath numbers (see ``mp_params``)."""
    fid, q = p["family"], p["q"]
    A, B, C, D, d, a = (p.get(k) for k in ("A", "B", "C", "D", "delta", "a"))
    qn = q**n
    qm1 = qn / q
    if fid == "cdqh":
        an = (1 / A + 1 / B + 1 / C + 1 / D) * qn - (1 + q) * qn * qm1
        bn = q / (A * B * C * D) * (1 - A * qm1) * (1 - B * qm1) * (1 - C * qm1) * (1 - D * qm1)
    elif fid == "big-q-laguerre":
        an = (1 / A + 1 / B + 1 / C) * qn - (1 + q) * qn * qm1
        bn = -qn / (A * B * C) * (1 - A * qm1) * (1 - B * qm1) * (1 - C * qm1)
    elif fid == "wall":
        an = (1 / A + 1 / B) * qn - (1 + q) * qn * qm1
        bn = qn * qm1 / (A * B) * (1 - A * qm1) * (1 - B * qm1)
    elif fid == "limit-wall":
        an = qn / A - (1 + q) * qn * qm1
        bn = -qn * qm1 * qm1 / A * (1 - A * qm1)
    elif fid == "fourth-limit":
        an = -(1 + q) * qn * qm1
        bn = qm1 * qm1 * qm1 * qn
    elif fid == "al-salam-chihara":
        an = (1 + 1 / d) * qn
        bn = q / (A * B * d) * (1 - A * qm1) * (1 - B * qm1)
    elif fid == "al-salam-carlitz1":
        an = (1 + 1 / d) * qn
        bn = -qn / (A * d) * (1 - A * qm1)
    elif fid == "limit-asc1":
        an = (1 + 1 / d) * qn
        bn = qn * qm1 / d
    elif fid == "cont-q-hermite":
        an = 0 * q
        bn = q / (A * d) * (1 - A * qm1)
    elif fid == "limit-q-hermite":
        an = 0 * q
        bn = -qn / d
    elif fid == "cont-big-q-hermite":
        an = qn
        bn = a * q / A * (1 - A * qm1)
    elif fid == "q-bessel-order":
        an = qn
        bn = -a * qn
    else:
        raise KeyError(fid)
    return an, bn


def poly_table(p, z, n_max):
    """Monic P_0..P_{n_max}(z) by the forward recurrence in doubles,
    with the largest recurrence term of each step (the scale that
    bounds its rounding error)."""
    z = complex(z)
    prev, cur = 0j, 1 + 0j
    values, scales = [cur], [1.0]
    for n in range(n_max):
        an, bn = coeffs(p, n)
        t1, t2 = (z - an) * cur, bn * prev
        prev, cur = cur, t1 - t2
        values.append(cur)
        scales.append(max(abs(t1), abs(t2), abs(cur)))
    return values, scales


def forward_scaled(p, z, indices):
    """{n: (mantissa, log scale)} of P_n(z) by the forward recurrence in
    doubles, renormalized every 50 steps."""
    z = complex(z)
    prev, cur, log_scale = 0j, 1 + 0j, 0.0
    out = {0: (cur, 0.0)} if 0 in indices else {}
    for n in range(max(indices)):
        an, bn = coeffs(p, n)
        prev, cur = cur, (z - an) * cur - bn * prev
        if (n + 1) % 50 == 0:
            top = max(abs(prev), abs(cur))
            prev, cur, log_scale = prev / top, cur / top, log_scale + math.log(top)
        if n + 1 in indices:
            out[n + 1] = (cur, log_scale)
    return out


def scaled_rel_error(value, reference) -> float:
    """Relative error between two (mantissa, log scale) pairs."""
    (m1, s1), (m2, s2) = value, reference
    return abs(m1 * math.exp(s1 - s2) - m2) / abs(m2)


def mp_params(p):
    return {k: v if k == "family" else mpmath.mpf(v) for k, v in p.items()}


def mp_poly(p, z, indices):
    """{n: P_n(z)} at 40 digits for the requested indices."""
    with mpmath.workdps(MP_DIGITS):
        pm = mp_params(p)
        zz = mpmath.mpc(z)
        prev, cur = mpmath.mpc(0), mpmath.mpc(1)
        out = {0: cur} if 0 in indices else {}
        for n in range(max(indices)):
            an, bn = coeffs(pm, n)
            prev, cur = cur, (zz - an) * cur - bn * prev
            if n + 1 in indices:
                out[n + 1] = cur
        return out


def mp_rel_error(value, log_scale, reference):
    """|value * e^log_scale - reference| / |reference| in 40 digits."""
    with mpmath.workdps(MP_DIGITS):
        v = mpmath.mpc(value) * mpmath.exp(log_scale)
        den = abs(reference)
        return float(abs(v - reference) / den) if den else float(abs(v))


def relative_residual(p, z, xm, x0, xp, n):
    """|X_{n+1} - (z - a_n) X_n + b_n^2 X_{n-1}| over its largest term."""
    an, bn = coeffs(p, n)
    terms = (xp, (complex(z) - an) * x0, bn * xm)
    scale = max(abs(t) for t in terms)
    return abs(terms[0] - terms[1] + terms[2]) / scale if scale else 0.0


def cf_value(p, z, rel_tol=1e-13, max_depth=1 << 16):
    """The J-fraction z - a_0 - b_1^2/(z - a_1 - ...) evaluated bottom-up,
    doubling the depth until two depths agree."""
    z = complex(z)

    def truncated(depth):
        tail = 0j
        for k in range(depth - 1, 0, -1):
            ak, bk = coeffs(p, k)
            tail = bk / (z - ak - tail)
        return z - coeffs(p, 0)[0] - tail

    depth, prev = 32, truncated(32)
    while depth < max_depth:
        depth *= 2
        cur = truncated(depth)
        if abs(cur - prev) <= rel_tol * abs(cur):
            return cur
        prev = cur
    raise ArithmeticError("continued fraction did not settle")


def fourth_limit_series(q, n, x) -> float:
    """f_n(x) = sum_k q^(k(k-1)) (q^(2n+1)/x)^k / (q; q)_k, real x < 0."""
    total, term, k = 1.0, 1.0, 0
    while True:
        k += 1
        term *= q ** (2 * (k - 1)) * q ** (2 * n + 1) / ((1 - q**k) * x)
        total += term
        if abs(term) <= 1e-18 * abs(total) or k > 500:
            return total


def rel(a, b) -> float:
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


def margin(tol, err) -> float:
    """Decimal digits to spare: log10(tolerance / error)."""
    return math.log10(tol / max(err, ERR_FLOOR))


def mp_limit_weight(p, x):
    """Spectral weight of a cut-carrying limit family at 40 digits,
    summing the bracket series directly (inside their unit disks)."""
    with mpmath.workdps(MP_DIGITS):
        q = mpmath.mpf(p["q"])
        xx = mpmath.mpf(x)
        u = mpmath.mpc(xx, mpmath.sqrt(1 - xx * xx))
        qp, qh = mpmath.qp, mpmath.qhyper
        fid = p["family"]
        A = mpmath.mpf(p["A"])
        if fid == "al-salam-chihara":
            B, d = mpmath.mpf(p["B"]), mpmath.mpf(p["delta"])
            gamma = 2 * mpmath.sqrt(mpmath.mpc(q / (A * B * d)))
            lp, lm = gamma / 2 * u, gamma / 2 / u
            num = qp(A, q) * qp(B, q) * qp(u * u, q) * qp(1 / (u * u), q)
            den = qp(A * d * lp, q) * qp(A * d * lm, q) * qp(A * B * lp / q, q) * qp(A * B * lm / q, q)
            br = qh([B * lm, B / q], [A * B * lm / q], q, A * d * lm)
            br *= qh([B * lp, B / q], [A * B * lp / q], q, A * d * lp)
        elif fid == "cont-q-hermite":
            num = qp(A, q) * qp(u * u, q) * qp(1 / (u * u), q)
            den = 1
            br = qh([A / q], [0], q, q / (u * u)) * qh([A / q], [0], q, q * u * u)
        else:  # cont-big-q-hermite
            a = mpmath.mpf(p["a"])
            gamma = 2 * mpmath.sqrt(mpmath.mpc(a * q / A))
            lp, lm = gamma / 2 * u, gamma / 2 / u
            num = qp(A, q) * qp(u * u, q) * qp(1 / (u * u), q)
            den = qp(gamma * u / (2 * a), q) * qp(gamma / (2 * a * u), q)
            br = qh([A / q, A * lm], [0], q, lm / a) * qh([A / q, A * lp], [0], q, lp / a)
        value = num / (2 * mpmath.pi * mpmath.sqrt(1 - xx * xx) * den * br)
        return float(value.real)
