"""Identity and property verification harness.

Every check draws seeded pseudo-random parameters, evaluates both sides
of an identity (or a residual) independently, and reports the largest
relative deviation over all draws in a CheckReport.  Draw samplers keep
parameters away from singular configurations and keep every series
argument comfortably inside its convergence region, per-family; the
rejection rules are part of the documented test domain.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field

import numpy as np

from . import cdqhahn, limits, qseries, recurrence
from .errors import QdhError, QuadratureNotConverged
from .qseries import phi32

DEFAULT_SEED = 20240801


@dataclass
class Failure:
    inputs: dict
    lhs: complex
    rhs: complex
    error: float

    def to_dict(self):
        return {
            "inputs": {k: _jsonable(v) for k, v in self.inputs.items()},
            "lhs": _jsonable(self.lhs),
            "rhs": _jsonable(self.rhs),
            "error": self.error,
        }


def _jsonable(value):
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


@dataclass
class CheckReport:
    check_id: str
    seed: int
    points_tested: int
    max_rel_error: float
    threshold: float
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= self.threshold

    def record(self, error: float, inputs: dict, lhs, rhs):
        error = float(error)
        self.points_tested += 1
        self.max_rel_error = max(self.max_rel_error, error)
        if error > self.threshold:
            self.failures.append(Failure(inputs, complex(lhs), complex(rhs), error))

    def to_dict(self):
        return {
            "check_id": self.check_id,
            "seed": self.seed,
            "points": self.points_tested,
            "max_rel_error": self.max_rel_error,
            "pass": self.passed,
            "failures": [f.to_dict() for f in self.failures],
        }

    def to_text(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} {self.check_id}: points={self.points_tested} "
            f"max_rel_error={self.max_rel_error:.3e} threshold={self.threshold:.1e} "
            f"seed={self.seed}"
        )


def _rel(lhs, rhs, scale=None) -> float:
    if scale is None:
        scale = max(abs(lhs), abs(rhs), 1e-300)
    return abs(lhs - rhs) / scale


def _sampled(check_id, seed, threshold, count, trial):
    """One sampled check: run ``trial(rng)`` on one seeded stream until
    ``count`` points are recorded.  A trial yields its records
    ``(error, inputs, lhs, rhs)``; one that raises a QdhError is redrawn,
    and the records it yielded before keep their place."""
    rng = random.Random(seed)
    report = CheckReport(check_id, seed, 0, 0.0, threshold)
    while report.points_tested < count:
        try:
            for record in trial(rng):
                report.record(*record)
        except QdhError:
            continue
    return report


# ---------------------------------------------------------------------------
# Draw samplers.  All rejection rules are numerical-comfort conditions:
# arguments bounded away from the unit circle and from the q-power pole
# lattice, and parameters bounded away from coincidences.
# ---------------------------------------------------------------------------


def _away_from_lattice(value, q) -> bool:
    """True when value is not suspiciously close to q^-m for m >= 0."""
    v = abs(value)
    if v < 1.0 - 5e-3:
        return True
    pos = math.log(v) / math.log(1.0 / q)
    return abs(pos - round(pos)) * math.log(1.0 / q) > 5e-3


def _comfortable(value) -> bool:
    v = abs(value)
    return v <= 4.0 and abs(v - 1.0) >= 0.3


def _distinct(vals, q) -> bool:
    """The flagship parameters keep 1e-3 apart from each other and from q."""
    return (min(abs(vals[i] - vals[j]) for i in range(4) for j in range(i + 1, 4)) >= 1e-3
            and all(abs(v - q) >= 1e-3 for v in vals))


def draw_cdqh(rng, q_range=(0.35, 0.65)):
    """A comfortable flagship draw plus an off-cut spectral point."""
    while True:
        q = rng.uniform(*q_range)
        vals = [rng.uniform(0.2, 0.85) for _ in range(4)]
        if not _distinct(vals, q):
            continue
        params = cdqhahn.CDQHParams(q, *vals)
        x = rng.uniform(1.3, 2.8) * rng.choice([1.0, -1.0])
        point = cdqhahn.spectral_point(params, x=x)
        lam = point.lam_minus
        drivers = [
            params.A * params.D * lam,
            params.A * params.D * point.lam_plus * q,
        ]
        if all(_away_from_lattice(d, q) for d in drivers):
            return params, point


def draw_cdqh_polyform(rng):
    """Draw in the domain where the explicit double-sum formulas are
    well conditioned in doubles (their alternating outer terms grow like
    q^(-n^2/2), so larger q and |x| keep the cancellation mild)."""
    while True:
        q = rng.uniform(0.62, 0.74)
        vals = [rng.uniform(0.3, 0.8) for _ in range(4)]
        if not _distinct(vals, q):
            continue
        params = cdqhahn.CDQHParams(q, *vals)
        x = rng.uniform(2.4, 3.4) * rng.choice([1.0, -1.0])
        return params, cdqhahn.spectral_point(params, x=x)


def draw_limit_family(rng, family_id, q_range=(0.35, 0.65)):
    """A comfortable draw (family, z) for residual and CF checks."""
    cls = limits.FAMILIES[family_id]
    while True:
        q = rng.uniform(*q_range)
        kw = {}
        for name in cls.param_names:
            if name in ("A", "B", "C"):
                kw[name] = rng.uniform(0.2, 0.85)
            elif name == "delta":
                kw[name] = rng.choice([1.0, -1.0]) * rng.uniform(0.35, 0.9)
            elif name == "a":
                kw[name] = -rng.uniform(0.3, 1.4)
        fam = cls(q, **kw)
        if hasattr(fam, "gamma"):
            z = rng.uniform(1.3, 2.3) * abs(fam.gamma)
        else:
            z = rng.uniform(2.0, 3.4)
        drivers = fam._comfort_drivers(z)
        if all(_comfortable(d) for d in drivers) and all(
            _away_from_lattice(d, q) for d in drivers if abs(d) > 1
        ):
            return fam, z


def _balanced_draw(rng, q):
    """Parameters for the balanced five-parameter series with every
    shifted relative in its convergence disk."""
    while True:
        a, b, c = (rng.uniform(0.15, 0.85) for _ in range(3))
        d, e = (rng.uniform(0.15, 0.85) for _ in range(2))
        w = d * e / (a * b * c)
        if abs(w) >= 0.85 * q:
            continue
        # coefficients of the shift relations divide by these
        if min(abs(1 - d), abs(1 - e)) < 1e-3:
            continue
        if min(abs(d - q), abs(e - q)) < 1e-3:
            continue
        if min(abs(d - a), abs(e - a)) < 1e-3 or abs(1 - a) < 1e-3:
            continue
        return a, b, c, d, e


# ---------------------------------------------------------------------------
# Contiguous relations among balanced series.
# ---------------------------------------------------------------------------

class _DrawSeries(dict):
    """phi32 over one draw, summing each distinct argument tuple once:
    the five relations use seven shifted series among them.  phi32 is
    looked up at each call, never captured, so a rebinding of the name
    reaches every series summed."""

    def __call__(self, *args):
        if args not in self:
            self[args] = phi32(*args)
        return self[args]


# The three terms of each shift relation at a draw (a, b, c, d, e, q),
# with ``phi32`` summing the draw's series.
CONTIGUOUS_RELATIONS = {
    "a-up": lambda a, b, c, d, e, q, phi32: [
        phi32(a, b, c, d, e, q),
        -phi32(a * q, b, c, d, e, q),
        (1 - b)
        * (1 - c)
        / ((1 - d) * (1 - e))
        * (d * e / (a * b * c * q))
        * phi32(a * q, b * q, c * q, d * q, e * q, q),
    ],
    "up-mixed": lambda a, b, c, d, e, q, phi32: [
        (1 - d) * (1 - e) * phi32(a, b, c, d, e, q),
        (d - a) * (1 - e / a) * phi32(a, b * q, c * q, d * q, e * q, q),
        -(1 - a) * (1 - d * e / (a * b * c * q)) * phi32(a * q, b * q, c * q, d * q, e * q, q),
    ],
    "a-bilateral": lambda a, b, c, d, e, q, phi32: [
        (1 - b)
        * (1 - c)
        * (1 - d / a)
        * (1 - e / a)
        / ((1 - d) * (1 - e))
        * (d * e / (b * c * q))
        * phi32(a, b * q, c * q, d * q, e * q, q),
        -(
            (1 - a) * (1 - d * e / (a * b * c * q))
            + a * (1 - d / (a * q)) * (1 - e / (a * q))
            + (d * e / (a * b * c * q)) * (1 - b) * (1 - c)
        )
        * phi32(a, b, c, d, e, q),
        (1 - d / q) * (1 - e / q) * phi32(a, b / q, c / q, d / q, e / q, q),
    ],
    "a-updown": lambda a, b, c, d, e, q, phi32: [
        (d * e * (a - b - c) + a * b * c * (d + e + q - a - a * q))
        * phi32(a, b, c, d, e, q),
        (1 - a) * (d * e - a * b * c * q) * phi32(a * q, b, c, d, e, q),
        b * c * (d - a) * (e - a) * phi32(a / q, b, c, d, e, q),
    ],
    "all-updown": lambda a, b, c, d, e, q, phi32: [
        (1 - a)
        * (1 - b)
        * (1 - c)
        / ((1 - d) * (1 - e))
        * (d * e / (a * b * c * q))
        * (d * e - a * b * c * q)
        * phi32(a * q, b * q, c * q, d * q, e * q, q),
        (a * b * c * (d + e - q) + d * e * (1 + q - a - b - c))
        * phi32(a, b, c, d, e, q),
        a * b * c * q * (1 - d / q) * (1 - e / q) * phi32(a / q, b / q, c / q, d / q, e / q, q),
    ],
}


def _contiguous_residual(relation_id, a, b, c, d, e, q, series=None):
    """Residual of the named three-term shift relation, normalized by
    its largest term.  ``series`` sums the draw's phi32 (a ``_DrawSeries``
    shared by the relations of one draw); by default a fresh one."""
    series = _DrawSeries() if series is None else series
    terms = CONTIGUOUS_RELATIONS[relation_id](a, b, c, d, e, q, series)
    scale = max(abs(t) for t in terms)
    return abs(sum(terms)) / max(scale, 1e-300)


def _contiguous_reports(relation_ids, sample_count, seed):
    """Residuals of the named relations over one pass of the seeded
    draws; every relation of a draw reads the same summed series."""
    rng = random.Random(seed)
    reports = [CheckReport(f"contiguous/{rid}", seed, 0, 0.0, 1e-9) for rid in relation_ids]
    for _ in range(sample_count):
        q = rng.uniform(0.35, 0.65)
        a, b, c, d, e = _balanced_draw(rng, q)
        inputs = {"q": q, "a": a, "b": b, "c": c, "d": d, "e": e}
        series = _DrawSeries()
        for rid, report in zip(relation_ids, reports):
            res = _contiguous_residual(rid, a, b, c, d, e, q, series)
            report.record(res, inputs, res, 0.0)
    return reports


def check_contiguous(relation_id: str, sample_count: int = 100,
                     seed: int = DEFAULT_SEED) -> CheckReport:
    """Residuals of one three-term shift relation over random draws."""
    return _contiguous_reports((relation_id,), sample_count, seed)[0]


def check_contiguous_all(sample_count: int = 100, seed: int = DEFAULT_SEED):
    """``check_contiguous`` for the five relations, which draw alike from
    one seed, in one pass over the draws."""
    return _contiguous_reports(CONTIGUOUS_RELATIONS, sample_count, seed)


# ---------------------------------------------------------------------------
# The three-term transformation connecting dominant, lead-c and lead-a.
# ---------------------------------------------------------------------------


def _three_term_trial(rng):
    params, point = draw_cdqh(rng)
    if abs(params.A - params.C) < 5e-3:
        return  # the connecting products collapse when A = C
    c1, c4, c2 = cdqhahn.three_term_coeffs(params, point)
    n = rng.randrange(0, 8)
    lhs = c1 * cdqhahn.solution(params, point, "dominant", n) - c4 * cdqhahn.solution(
        params, point, "lead-c", n
    )
    rhs = c2 * cdqhahn.solution(params, point, "lead-a", n)
    err = _rel(lhs, rhs)
    yield (
        err,
        {"q": params.q, "A": params.A.real, "B": params.B.real,
         "C": params.C.real, "D": params.D.real, "x": point.x, "n": n},
        lhs,
        rhs,
    )


def check_three_term_transform(sample_count: int = 50, seed: int = DEFAULT_SEED) -> CheckReport:
    return _sampled("three-term-transform", seed, 1e-8, sample_count, _three_term_trial)


# ---------------------------------------------------------------------------
# Staged reduction of the lead-a solution at C = q.
# ---------------------------------------------------------------------------


def _lead_a_two_series(params, point, n):
    """The two-term rewrite of the lead-a solution (valid for generic C).

    Both series carry argument q; the second term vanishes identically
    at C = q through its terminating numerator product.
    """
    q = params.q
    A, B, C, D = params.A, params.B, params.C, params.D
    lp, lm = point.lam_plus, point.lam_minus
    pref = qseries.qpoch_multi([A, B], q, n) / (A * B) ** n
    t1 = qseries.qpoch_multi([A * C * lm, A * C * lp], q) / qseries.qpoch_multi(
        [A * q / D, C / B], q
    ) * qseries._phi(
        (q ** (1 - n) / C, A * B * lp, A * B * lm), (A * q / C, B * q / C), q, q
    )
    t2 = qseries.qpoch_multi(
        [q ** (1 - n) / C, A * B * lp, A * B * lm, A * q / B], q
    ) / qseries.qpoch_multi(
        [A * q / C, A * q / D, B / C, q ** (1 - n) / B], q
    ) * qseries._phi(
        (q ** (1 - n) / B, A * C * lm, A * C * lp), (A * q / B, C * q / B), q, q
    )
    return pref * (t1 + t2)


def _c_eq_q_trial(rng):
    params, point = draw_cdqh(rng)
    n = rng.randrange(0, 6)
    lhs = cdqhahn.solution(params, point, "lead-a", n)
    rhs = _lead_a_two_series(params, point, n)
    yield (_rel(lhs, rhs), {"stage": "two-series", "n": n, "q": params.q},
           lhs, rhs)
    # C = q: single terminating series times an n-independent constant
    reduced = cdqhahn.CDQHParams(params.q, params.A, params.B, params.q, params.D)
    rpoint = cdqhahn.spectral_point(reduced, x=point.x.real)
    lead_a = [cdqhahn.solution(reduced, rpoint, "lead-a", m) for m in (0, 1, n)]
    terminating = [
        cdqhahn.dual_qhahn_reduction(reduced, rpoint, m) for m in (0, 1, n)
    ]
    ratios = [va / vb for va, vb in zip(lead_a, terminating)]
    err = max(_rel(r, ratios[0]) for r in ratios)
    yield (err, {"stage": "reduction-ratio", "n": n, "q": params.q},
           ratios[-1], ratios[0])
    const = qseries.qpoch_multi(
        [reduced.A * params.q * rpoint.lam_minus, reduced.A * params.q * rpoint.lam_plus],
        params.q,
    ) / qseries.qpoch_multi([reduced.A * params.q / reduced.D, params.q / reduced.B], params.q)
    yield (_rel(ratios[0], const), {"stage": "reduction-constant", "q": params.q},
           ratios[0], const)


def check_c_eq_q_reduction(sample_count: int = 20, seed: int = DEFAULT_SEED) -> CheckReport:
    """Three staged equalities: the two-series rewrite against the
    lead-a solution for generic C; its collapse to a single terminating
    series at C = q; and the n-independence of the ratio against the
    classical terminating form."""
    return _sampled("c-eq-q-reduction", seed, 1e-9, sample_count, _c_eq_q_trial)


# ---------------------------------------------------------------------------
# Orthogonality through two independent quadratures.
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=8)
def gauss_nodes(count: int):
    """Gauss-Legendre nodes (ascending) and weights on (-1, 1), built
    once per count and shared as read-only arrays.

    Newton's method in theta = arccos x runs on the ceil(count/2)
    nonnegative roots of P_count at once (Hale & Townsend, SIAM J. Sci.
    Comput. 35 (2013) A652): each step is one pass of the three-term
    recurrence over the root array, so O(count) memory and O(count^2)
    time.  The weights are 2 / (dP_count/dtheta)^2, which keeps them
    accurate at the edge nodes, where 1 - x^2 loses digits.
    """
    theta = math.pi * (4 * np.arange(1, (count + 1) // 2 + 1) - 1) / (4 * count + 2)
    for _ in range(5):  # quadratic convergence from the first guess's 2%
        x = np.cos(theta)
        p_prev, p = np.ones_like(x), x  # P_{k-1}, P_k at k = 1
        for k in range(1, count):
            p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
        # dP/dtheta = -sin(theta) P'(x) = count (x P_count - P_{count-1}) / sin(theta)
        slope = count * (x * p - p_prev) / np.sin(theta)
        theta = theta - p / slope
    # the last correction is below rounding: its slope gives the weights
    x, w = np.cos(theta), 2 / slope**2
    if count % 2:
        x[-1] = 0.0  # the middle root, exactly
    # mirror the roots below 0 (the middle root of an odd count once)
    x = np.concatenate([-x[:count // 2], x[::-1]])
    w = np.concatenate([w[:count // 2], w[::-1]])
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gram_matrix(weight_fn, family, scale, n_max, nodes: int, method: str):
    """Gram matrix of P_0..P_{n_max} under the density ``weight_fn`` on
    (-1, 1), with the recurrence argument z = x / scale.

    ``weight_fn`` maps the array of quadrature nodes to the array of
    densities there, in one call.  Method "gauss" uses Gauss-Legendre
    nodes in x; "cosine" uses the trapezoid rule in the angle variable,
    which absorbs the edge factor.
    """
    if method == "gauss":
        x, w = gauss_nodes(nodes)
        quad_w = w * np.asarray(weight_fn(x), dtype=float)
    elif method == "cosine":
        theta = (np.arange(nodes) + 0.5) * math.pi / nodes
        x = np.cos(theta)
        # dx = -sin(theta) dtheta cancels one edge factor of the density
        density = np.asarray(weight_fn(x), dtype=float)
        quad_w = density * np.sin(theta) * (math.pi / nodes)
    else:
        raise ValueError("method must be 'gauss' or 'cosine'")
    values = recurrence.forward_eval(family, x / scale, 0.0, 1.0, n_max).values()[1:]
    return (values * quad_w) @ values.T.conj()


def check_orthogonality(case: str = "reduced", n_max: int = 6, nodes: int = 2000,
                        seed: int = DEFAULT_SEED, threshold: float = 1e-6) -> CheckReport:
    """Gram-diagonality of the flagship polynomials under the spectral
    weight, via Gauss-Legendre and cosine-trapezoid quadratures.

    case "reduced" pins C = q with parameters for which the discrete
    spectrum is provably empty; "associated" uses a four-parameter draw
    checked pole-free by scanning the transform denominator on the real
    axis outside the cut.
    """
    report = CheckReport(f"orthogonality/{case}", seed, 0, 0.0, threshold)
    if case == "reduced":
        params = cdqhahn.CDQHParams(0.5, 0.4, 0.4, 0.5, 0.4)
        A, B, D = params.A.real, params.B.real, params.D.real
        assert max(
            math.sqrt(B * D / A), math.sqrt(A * B / D), math.sqrt(A * D / B)
        ) < 1, "mass-free condition violated"
    elif case == "associated":
        params = cdqhahn.CDQHParams(0.5, 0.4, 0.4, 0.7, 0.4)
        if not transform_pole_free(params):
            raise QdhError("associated draw has a pole on the real axis")
    else:
        raise ValueError("case must be 'reduced' or 'associated'")
    weight_fn = lambda x: cdqhahn.weight(params, x)
    scale = params.alpha.real
    grams = {}
    drift_gate = 0.1 * threshold
    for method in ("gauss", "cosine"):
        g1 = gram_matrix(weight_fn, params, scale, n_max, nodes, method)
        g2 = gram_matrix(weight_fn, params, scale, n_max, 2 * nodes, method)
        drift = np.max(np.abs(g1 - g2)) / np.max(np.abs(g2))
        if drift > drift_gate:
            raise QuadratureNotConverged(
                f"{method} Gram matrix still drifting at {nodes} nodes ({drift:.2e})"
            )
        grams[method] = g2
    for method, g in grams.items():
        diag = np.sqrt(np.abs(np.diag(g)))
        for m in range(n_max + 1):
            for n in range(m + 1, n_max + 1):
                err = abs(g[m, n]) / (diag[m] * diag[n])
                report.record(
                    err, {"method": method, "m": m, "n": n}, g[m, n], 0.0
                )
    cross = np.max(np.abs(grams["gauss"] - grams["cosine"])) / np.max(
        np.abs(grams["cosine"])
    )
    report.record(cross, {"stage": "method-agreement"}, cross, 0.0)
    return report


def transform_pole_free(params, x_max: float = 30.0) -> bool:
    """Scan the transform denominator for sign changes on the real axis
    outside the cut, at 1200 points a side; used to justify mass-free
    orthogonality draws."""
    for side in (1.0, -1.0):
        grid = np.geomspace(1.0 + 1e-4, x_max, 1200) * side
        lam = cdqhahn.spectral_point(params, x=grid).lam_minus
        vals = params._ratio_denominator(lam).real
        if (vals[:-1] * vals[1:] < 0).any():
            return False
    return True


# ---------------------------------------------------------------------------
# Parameter symmetries of the explicit polynomials.
# ---------------------------------------------------------------------------


def check_symmetries(sample_count: int = 5, seed: int = DEFAULT_SEED) -> CheckReport:
    """Full parameter-exchange invariance plus u <-> 1/u invariance, at
    degrees 2..8."""
    import itertools

    rng = random.Random(seed)
    report = CheckReport("symmetries", seed, 0, 0.0, 1e-9)
    for _ in range(sample_count):
        params, point = draw_cdqh_polyform(rng)
        x = point.x.real
        n = rng.randrange(2, 9)
        base = cdqhahn.explicit_poly(params, point, n)
        for perm in itertools.permutations("ABCD"):
            permuted = params.permuted("".join(perm))
            ppoint = cdqhahn.spectral_point(permuted, x=x)
            value = cdqhahn.explicit_poly(permuted, ppoint, n)
            report.record(
                _rel(value, base),
                {"perm": "".join(perm), "n": n, "q": params.q},
                value,
                base,
            )
        flipped = cdqhahn.SpectralPoint(
            point.z, point.alpha, point.x, 1.0 / point.u,
            point.lam_minus, point.lam_plus, point.side,
        )
        for name, fn in (("explicit", cdqhahn.explicit_poly),
                         ("two-index", cdqhahn.explicit_poly_ir)):
            value = fn(params, flipped, n)
            reference = fn(params, point, n)
            report.record(
                _rel(value, reference),
                {"stage": f"u-inversion/{name}", "n": n, "q": params.q},
                value,
                reference,
            )
    return report


# ---------------------------------------------------------------------------
# Limit edges.
# ---------------------------------------------------------------------------


def check_limits_all(seed: int = DEFAULT_SEED) -> CheckReport:
    """Monotone deviation decrease across every documented limit edge,
    at scales 1e2, 1e3 and 1e4 and degree 3.

    The recorded metric per edge is the worst consecutive deviation
    ratio; strict decrease means every ratio is below one.
    """
    rng = random.Random(seed)
    report = CheckReport("limit-edges", seed, 0, 0.0, 0.999)
    for edge_id, edge in limits.LIMIT_EDGES.items():
        child, z = draw_limit_family(rng, edge["child"], q_range=(0.4, 0.6))
        deviations = limits.limit_convergence(edge_id, child, (1e2, 1e3, 1e4), 3, z)
        worst_ratio = max(
            d2 / d1 if d1 > 0 else 0.0 for d1, d2 in zip(deviations, deviations[1:])
        )
        report.record(
            worst_ratio,
            {"edge": edge_id, "z": z, "deviations": list(deviations)},
            worst_ratio,
            0.0,
        )
    # structural coefficient identity for the three-parameter confluent
    # family under the classical substitution
    b_par, c_par, gamma = 0.6, 0.45, 0.8
    q = 0.5
    fam = limits.AlSalamChihara(q, b_par * gamma / c_par, gamma * q, 1.0 / (b_par * gamma**2))
    for m in range(0, 6):
        a_m, b_sq = recurrence.coeffs(fam, m)
        a_expected = (1 + b_par * gamma**2) * q**m
        b_expected = c_par * (1 - (b_par * gamma / c_par) * q ** (m - 1)) * (
            1 - gamma * q**m
        )
        report.record(_rel(a_m, a_expected), {"stage": "substitution-a", "n": m},
                      a_m, a_expected)
        report.record(_rel(b_sq, b_expected), {"stage": "substitution-b", "n": m},
                      b_sq, b_expected)
    return report


# ---------------------------------------------------------------------------
# Transformation identities (delegates to the registry).
# ---------------------------------------------------------------------------


def _transform_trial(tid, rng):
    q = rng.uniform(0.3, 0.7)
    inputs = qseries.sample_transform_inputs(tid, rng, q)
    lhs, rhs = qseries.transform_check(tid, q, **inputs)
    yield _rel(lhs, rhs, max(abs(lhs), 1.0)), {"q": q, **inputs}, lhs, rhs


def check_transforms(sample_count: int = 100, seed: int = DEFAULT_SEED):
    """Both-sides agreement for every registered identity, one report each."""
    return [_sampled(f"transform/{tid}", seed, 1e-10, sample_count,
                     functools.partial(_transform_trial, tid))
            for tid in qseries.transform_ids()]


# ---------------------------------------------------------------------------
# Suite runner.
# ---------------------------------------------------------------------------

# check id -> its reports at (seed, fast).  Each entry looks its check
# up by name when it runs, so a rebinding of a check_* name reaches it.
CHECKS = {
    "contiguous": lambda seed, fast: check_contiguous_all(30 if fast else 100, seed),
    "three-term-transform":
        lambda seed, fast: [check_three_term_transform(15 if fast else 50, seed)],
    "c-eq-q-reduction": lambda seed, fast: [check_c_eq_q_reduction(6 if fast else 20, seed)],
    # 800: the Gauss drift against 1600 nodes is 7.4e-8 (associated)
    # and 6.0e-8 (reduced), inside the 1e-7 gate; 724 nodes just pass
    "orthogonality": lambda seed, fast: [
        check_orthogonality(case, nodes=800 if fast else 2000, seed=seed)
        for case in ("reduced", "associated")],
    "symmetries": lambda seed, fast: [check_symmetries(2 if fast else 5, seed)],
    "limits": lambda seed, fast: [check_limits_all(seed)],
    "transforms": lambda seed, fast: check_transforms(30 if fast else 100, seed),
}
CHECK_IDS = tuple(CHECKS)


def run_checks(check_id: str = "all", seed: int = DEFAULT_SEED, fast: bool = False):
    """Run one named check (or the whole battery); returns reports."""
    ids = CHECK_IDS if check_id == "all" else (check_id,)
    return [report for cid in ids for report in CHECKS[cid](seed, fast)]
