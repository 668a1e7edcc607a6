"""Generic three-term recurrence machinery.

Works with any coefficient family object declaring ``_coeff_rows(lo,
n)``, the lists a_lo..a_{n-1} and b_lo^2..b_{n-1}^2 of the recurrence
X_{n+1} - (z - a_n) X_n + b_n^2 X_{n-1} = 0.  Sequences carry a
per-index logarithmic scale so that residual and ratio tests stay
meaningful when values leave the comfortable double range; forward
evaluation renormalizes every ``RENORM_EVERY`` steps.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    IndexOutOfWindow,
    Overflow,
    ZeroDenominator,
    ZeroDivisor,
)

RENORM_EVERY = 50
_LOG_HUGE = 700.0  # ~ log(1e304)
# cf_adaptive's first truncation depth, and the depth it gives up past
CF_START_DEPTH = 32
CF_MAX_DEPTH = 1 << 16


@dataclass(frozen=True)
class Scaled:
    """A complex value stored as mantissa * exp(log_scale)."""

    mantissa: complex
    log_scale: float = 0.0

    @property
    def value(self) -> complex:
        if self.mantissa == 0:
            return 0.0 + 0.0j
        scale = math.exp(self.log_scale) if self.log_scale <= _LOG_HUGE else math.inf
        value = self.mantissa * scale
        if not cmath.isfinite(value):  # a mantissa above 1 can carry it out of range too
            raise Overflow("scaled value exceeds the double range")
        return value

    def log_abs(self) -> float:
        if self.mantissa == 0:
            return -math.inf
        return math.log(abs(self.mantissa)) + self.log_scale

    def __mul__(self, other):
        if isinstance(other, Scaled):
            return Scaled(self.mantissa * other.mantissa, self.log_scale + other.log_scale)
        return Scaled(self.mantissa * complex(other), self.log_scale)

    __rmul__ = __mul__

    def ratio(self, other: "Scaled") -> complex:
        if other.mantissa == 0:
            raise ZeroDivisor("ratio against a zero value")
        shift = self.log_scale - other.log_scale
        if shift > _LOG_HUGE:
            raise Overflow("ratio exceeds the double range")
        return self.mantissa / other.mantissa * math.exp(shift)

    def normalized(self) -> "Scaled":
        m = abs(self.mantissa)
        if m == 0 or m == 1.0:
            return self
        return Scaled(self.mantissa / m, self.log_scale + math.log(m))


def scaled_power(base, n: int) -> Scaled:
    """base**n as a Scaled value (phase in the mantissa, magnitude in the log)."""
    base = complex(base)
    if base == 0:
        return Scaled(0.0 + 0.0j if n > 0 else 1.0 + 0.0j, 0.0)
    mag = abs(base)
    return Scaled((base / mag) ** n, n * math.log(mag))


def scaled_qpower(q: float, exponent: float) -> Scaled:
    return Scaled(1.0 + 0.0j, exponent * math.log(q))


@dataclass(frozen=True)
class SolutionSequence:
    """An indexed run of solution values over a contiguous window."""

    start_index: int
    mantissas: tuple
    log_scales: tuple

    def __post_init__(self):
        if len(self.mantissas) != len(self.log_scales):
            raise ValueError("mantissas and log_scales must have equal length")

    def __len__(self):
        return len(self.mantissas)

    @property
    def stop_index(self) -> int:
        return self.start_index + len(self) - 1

    def _pos(self, n: int) -> int:
        pos = n - self.start_index
        if pos < 0 or pos >= len(self):
            raise IndexOutOfWindow(
                f"index {n} outside window [{self.start_index}, {self.stop_index}]"
            )
        return pos

    def scaled(self, n: int) -> Scaled:
        pos = self._pos(n)
        return Scaled(self.mantissas[pos], self.log_scales[pos])

    def value(self, n: int) -> complex:
        return self.scaled(n).value

    def values(self):
        """Every value of the window; for a grid run, the 2-D array of
        ``_cell_values``.  Overflow where some value leaves the double range."""
        if not isinstance(self.mantissas, np.ndarray):
            return [self.value(n) for n in range(self.start_index, self.stop_index + 1)]
        out = _cell_values(self.mantissas, self.log_scales)
        if not np.isfinite(out).all():
            raise Overflow("scaled value exceeds the double range")
        return out


@np.errstate(all="ignore")  # a value out of range is left inf or nan for the caller
def _cell_values(mantissas, log_scales):
    """The values mantissa * exp(log_scale) of an array of cells, each
    rounded as ``Scaled.value`` rounds it (mantissa * math.exp); a cell
    whose ``Scaled.value`` raises Overflow is inf or nan."""
    m = np.asarray(mantissas, dtype=complex)
    scales = np.asarray(log_scales, dtype=float)
    live = m != 0
    factor = np.ones(scales.shape)
    scaled = live & (scales != 0)
    factor[scaled] = [math.exp(s) if s <= _LOG_HUGE else math.inf
                      for s in scales[scaled].tolist()]
    out = np.zeros(m.shape, dtype=complex)
    # CPython's product with the float factor taken as complex(f, 0)
    out.real[live] = (m.real * factor - m.imag * 0.0)[live]
    out.imag[live] = (m.real * 0.0 + m.imag * factor)[live]
    return out


def coeffs(family, n: int):
    """Recurrence coefficients (a_n, b_n^2) of the family at index n."""
    a, b_sq = family._coeff_rows(n, n + 1)
    return a[0], b_sq[0]


def coeff_table(family, n: int, table=None):
    """Lists (a_0..a_{n-1}, b_0^2..b_{n-1}^2) of the family's
    coefficients, from one ``_coeff_rows`` call; a given table is
    extended in place.  There is no array path: a bit-identical numpy
    version was 3-4 times faster at n = 1000, but each ``cf_adaptive``
    step's ~32 new entries paid for some twenty ufunc calls, and the
    benchmark sweep's median operation went from 0.107 to 0.20 ms on a
    2-vCPU VM."""
    a, b_sq = table if table is not None else ([], [])
    if len(a) < n:
        rows = family._coeff_rows(len(a), n)
        a += rows[0]
        b_sq += rows[1]
    return a, b_sq


def forward_eval(family, z, x_prev, x_0, n_max: int) -> SolutionSequence:
    """Iterate X_{n+1} = (z - a_n) X_n - b_n^2 X_{n-1} from the seeds.

    Seeds are (X_{-1}, X_0); with (0, 1) the result is the sequence of
    monic polynomials in z.  The running pair is renormalized every
    ``RENORM_EVERY`` steps with the scale tracked separately.  An array
    of z advances every point at once: the sequence then holds 2-D
    arrays (one row per index, one column per point), and each column
    equals the scalar run at its point bit for bit.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    a, b_sq = coeff_table(family, n_max)
    if isinstance(z, np.ndarray):
        return _forward_grid(a, b_sq, z, complex(x_prev), complex(x_0))
    z = complex(z)
    mantissas = [complex(x_prev), complex(x_0)]
    scales = [0.0, 0.0]
    prev, cur = mantissas[0], mantissas[1]
    log_scale = 0.0
    for n in range(0, n_max):
        nxt = (z - a[n]) * cur - b_sq[n] * prev
        if not (math.isfinite(nxt.real) and math.isfinite(nxt.imag)):
            raise Overflow(f"forward recurrence overflowed at index {n + 1}")
        prev, cur = cur, nxt
        if (n + 1) % RENORM_EVERY == 0:
            top = max(abs(prev), abs(cur))
            if top > 0:
                prev /= top
                cur /= top
                log_scale += math.log(top)
        mantissas.append(cur)
        scales.append(log_scale)
    return SolutionSequence(-1, tuple(mantissas), tuple(scales))


@np.errstate(all="ignore")  # an overflow raises Overflow below instead
def _forward_grid(a, b_sq, z, x_prev, x_0):
    """The forward loop over a 1-D array of z.  Real and imaginary parts
    are carried apart and combined the way CPython multiplies and divides
    complex numbers (numpy's complex product fuses multiply-adds), and
    each point's log scale is taken with ``math.log``.  A point that
    overflows raises the scalar run's Overflow, the earliest first."""
    z = np.asarray(z, dtype=complex)
    zr, zi = z.real, z.imag
    mantissas = np.empty((len(a) + 2, z.size), dtype=complex)
    scales = np.zeros(mantissas.shape)
    mantissas[0], mantissas[1] = x_prev, x_0
    pr, pi = mantissas.real[0].copy(), mantissas.imag[0].copy()
    cr, ci = mantissas.real[1].copy(), mantissas.imag[1].copy()
    log_scale = np.zeros(z.size)
    for n in range(len(a)):
        a_n, b_n = complex(a[n]), complex(b_sq[n])
        wr, wi = zr - a_n.real, zi - a_n.imag
        nr = (wr * cr - wi * ci) - (b_n.real * pr - b_n.imag * pi)
        ni = (wr * ci + wi * cr) - (b_n.real * pi + b_n.imag * pr)
        if not (np.isfinite(nr).all() and np.isfinite(ni).all()):
            raise Overflow(f"forward recurrence overflowed at index {n + 1}")
        pr, pi, cr, ci = cr, ci, nr, ni
        if (n + 1) % RENORM_EVERY == 0:
            top = np.maximum(np.hypot(pr, pi), np.hypot(cr, ci))
            live = top > 0
            t = np.where(live, top, 1.0)
            # complex / float in CPython: ((re + im*0) / t, (im - re*0) / t)
            pr, pi = np.where(live, (pr + pi * 0.0) / t, pr), np.where(live, (pi - pr * 0.0) / t, pi)
            cr, ci = np.where(live, (cr + ci * 0.0) / t, cr), np.where(live, (ci - cr * 0.0) / t, ci)
            log_scale = log_scale + [math.log(v) if v > 0 else 0.0 for v in top.tolist()]
        mantissas.real[n + 2], mantissas.imag[n + 2] = cr, ci
        scales[n + 2] = log_scale
    return SolutionSequence(-1, mantissas, scales)


def _aligned(*terms: Scaled):
    """The mantissas of ``terms`` brought to their largest log scale, and
    that scale."""
    shift = max(t.log_scale for t in terms)
    return [t.mantissa * math.exp(t.log_scale - shift) for t in terms], shift


def _recurrence_terms(family, z, seq: SolutionSequence, n: int):
    """The recurrence terms X_{n+1}, (z - a_n) X_n and b_n^2 X_{n-1},
    ``_aligned`` to one log scale."""
    a_n, b_sq = coeffs(family, n)
    return _aligned(seq.scaled(n + 1), seq.scaled(n) * (complex(z) - a_n),
                    seq.scaled(n - 1) * b_sq)


def residual(family, z, seq: SolutionSequence, n: int) -> complex:
    """X_{n+1} - (z - a_n) X_n + b_n^2 X_{n-1}; zero for exact solutions."""
    (t1, t2, t3), shift = _recurrence_terms(family, z, seq, n)
    return Scaled(t1 - t2 + t3, shift).value


def relative_residual(family, z, seq: SolutionSequence, n: int) -> float:
    """|residual| normalized by the largest of the three recurrence terms."""
    (t1, t2, t3), _ = _recurrence_terms(family, z, seq, n)
    scale = max(abs(t1), abs(t2), abs(t3))
    if scale == 0:
        return 0.0
    return abs(t1 - t2 + t3) / scale


def casoratian(x: SolutionSequence, y: SolutionSequence, n: int) -> complex:
    """Discrete Wronskian X_n Y_{n+1} - X_{n+1} Y_n."""
    (a, b), shift = _aligned(x.scaled(n) * y.scaled(n + 1), x.scaled(n + 1) * y.scaled(n))
    return Scaled(a - b, shift).value


def minimality_ratio(candidate: SolutionSequence, dominant: SolutionSequence):
    """|candidate_n / dominant_n| over the shared window.

    The dominant sequence must not vanish there; geometric decay of the
    returned list is the minimality signature.
    """
    lo = max(candidate.start_index, dominant.start_index)
    hi = min(candidate.stop_index, dominant.stop_index)
    if hi < lo:
        raise IndexOutOfWindow("sequences share no indices")
    ratios = []
    for n in range(lo, hi + 1):
        c = candidate.scaled(n)
        d = dominant.scaled(n)
        if d.mantissa == 0:
            raise ZeroDivisor(f"dominant sequence vanishes at index {n}")
        if c.mantissa == 0:
            ratios.append(0.0)
        else:
            ratios.append(math.exp(c.log_abs() - d.log_abs()))
    return ratios


def cf_truncated(family, z, depth: int, table=None) -> complex:
    """Evaluate the J-fraction z - a_0 - b_1^2/(z - a_1 - ...) bottom-up
    from tail value 0 at the given depth.  ``table`` (from
    ``coeff_table``) is extended to the depth and read instead of
    re-deriving the coefficients.  Overflow where the value is not
    finite."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    z = complex(z)
    a, b_sq = coeff_table(family, depth, table)
    tail = 0.0 + 0.0j
    for k in range(depth - 1, 0, -1):
        den = z - a[k] - tail
        if den == 0:
            raise ZeroDenominator(f"convergent hit a pole at level {k}")
        tail = b_sq[k] / den
    value = z - a[0] - tail
    if not cmath.isfinite(value):
        raise Overflow(f"truncated J-fraction at depth {depth} left the double range")
    return value


def cf_adaptive(family, z, rel_tol: float = 1e-12):
    """Double the truncation depth from CF_START_DEPTH until successive
    values agree, up to CF_MAX_DEPTH.

    Returns (value, depth).  A pole hit at some depth is retried at a
    slightly perturbed depth.  Every depth reads one coefficient table,
    extended as the depth grows.
    """
    table = ([], [])

    def attempt(d):
        for shift in (0, 1, 3, 7):
            try:
                return cf_truncated(family, z, d + shift, table)
            except ZeroDenominator:
                continue
        raise ZeroDenominator(f"persistent pole near depth {d}")

    depth = CF_START_DEPTH
    prev = attempt(depth)
    while depth <= CF_MAX_DEPTH:
        depth *= 2
        cur = attempt(depth)
        if abs(cur - prev) <= rel_tol * max(abs(cur), 1e-300):
            return cur, depth
        prev = cur
    raise ZeroDenominator(f"continued fraction did not settle by depth {CF_MAX_DEPTH}")


def characteristic_roots(z, product):
    """Roots of lambda^2 - z lambda + product, ordered (small, large).

    These are the large-n growth rates of a recurrence whose
    coefficients tend to a_n -> 0, b_n^2 -> product.  An array of z
    (complex) gives both roots at every point.
    """
    grid = isinstance(z, np.ndarray)
    z = np.asarray(z, dtype=complex) if grid else complex(z)
    disc = (np.sqrt if grid else cmath.sqrt)(z * z - 4.0 * product)
    r1 = 0.5 * (z + disc)
    r2 = 0.5 * (z - disc)
    if grid:
        first = abs(r1) >= abs(r2)
        return np.where(first, r2, r1), np.where(first, r1, r2)
    if abs(r1) >= abs(r2):
        return r2, r1
    return r1, r2
