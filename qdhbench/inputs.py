"""Seeded input generation for the benchmark workloads.

Inputs are plain tuples and dicts of Python numbers, drawn with the
benchmark's own ``random.Random`` over the documented draw domains (the
same ranges and rejection rules the library's verification samplers
use).  The library's own samplers are deliberately not called, so an
edit to ``verify.py`` cannot change what the benchmark runs.  The same
(workload, seed, batch) always gives the same inputs.
"""

from __future__ import annotations

import cmath
import math
import random

WORKLOADS = ("verify-checks", "recurrence-sweep", "pointwise-closed-forms")
CDQH = "cdqh"
LIMIT_PARAMS = {
    "big-q-laguerre": ("A", "B", "C"),
    "wall": ("A", "B"),
    "limit-wall": ("A",),
    "fourth-limit": (),
    "al-salam-chihara": ("A", "B", "delta"),
    "al-salam-carlitz1": ("A", "delta"),
    "limit-asc1": ("delta",),
    "cont-q-hermite": ("A", "delta"),
    "limit-q-hermite": ("delta",),
    "cont-big-q-hermite": ("A", "a"),
    "q-bessel-order": ("a",),
}
FAMILY_IDS = (CDQH,) + tuple(LIMIT_PARAMS)
# families whose b_n^2 tends to a nonzero constant: a spectral cut
# z = gamma * x, -1 < x < 1, near which continued fractions settle slowly
CUT_FAMILIES = (CDQH, "al-salam-chihara", "cont-q-hermite", "cont-big-q-hermite")
# closed-form solution indices that are divergent formal series
FORMAL = {"wall": (4,), "limit-wall": (3,), "fourth-limit": (2,),
          "cont-q-hermite": (2,), "cont-big-q-hermite": (3,), "q-bessel-order": (3,)}
SOLUTION_INDICES = {
    "big-q-laguerre": (1, 2, 3, 4, 5), "wall": (1, 2, 3, 4), "limit-wall": (1, 2, 3),
    "fourth-limit": (1, 2), "al-salam-chihara": (-1, 1, 2, 3, 4),
    "al-salam-carlitz1": (1, 2, 3, 4), "limit-asc1": (1, 2, 3, 4),
    "cont-q-hermite": (-1, 1, 2), "limit-q-hermite": (1,),
    "cont-big-q-hermite": (-1, 1, 2, 3), "q-bessel-order": (1, 2, 3),
}
CDQH_LABELS = ("minimal", "dominant", "lead-a", "lead-b", "lead-c", "lead-d", "inverted")
WEIGHT_FAMILIES = ("al-salam-chihara", "cont-q-hermite", "cont-big-q-hermite")


def rng_for(workload: str, seed: int, batch: int) -> random.Random:
    """Independent generator per batch; string seeds hash with SHA-512,
    so the stream does not depend on the interpreter's hash seed."""
    return random.Random(f"qdhbench:{workload}:{seed}:{batch}")


def _away_from_lattice(value, q, margin=5e-3) -> bool:
    v = abs(value)
    if v < 1.0 - margin:
        return True
    pos = math.log(v) / math.log(1.0 / q)
    return abs(pos - round(pos)) * math.log(1.0 / q) > margin


def _comfortable(value, bound=4.0) -> bool:
    v = abs(value)
    return v <= bound and abs(v - 1.0) >= 0.3


def _apart(vals, gap) -> bool:
    return min(abs(a - b) for i, a in enumerate(vals) for b in vals[i + 1:]) >= gap


def _distinct(vals, q) -> bool:
    return _apart(vals, 1e-3) and all(abs(v - q) >= 1e-3 for v in vals)


def cdqh_alpha(p) -> complex:
    return 0.5 * cmath.sqrt(p["A"] * p["B"] * p["C"] * p["D"] / p["q"])


def draw_cdqh(rng, reduced=False):
    """Flagship parameters and an off-cut x; with ``reduced`` C = q."""
    while True:
        q = rng.uniform(0.35, 0.65)
        vals = [rng.uniform(0.2, 0.85) for _ in range(4)]
        if reduced:
            vals[2] = q
            if not _distinct(vals[:2] + vals[3:], q):
                continue
        elif not _distinct(vals, q):
            continue
        p = {"family": CDQH, "q": q, "A": vals[0], "B": vals[1], "C": vals[2], "D": vals[3]}
        x = rng.uniform(1.3, 2.8) * rng.choice([1.0, -1.0])
        small, large = cdqh_roots(p, x)
        arguments = [p["A"] * p["D"] * small, p["A"] * p["D"] * large * q]
        if all(_away_from_lattice(d, q) for d in arguments):
            return p, x


def cdqh_roots(p, x):
    """(small, large) roots of lambda^2 - z lambda + q/ABCD at z = x/alpha."""
    z = complex(x) / cdqh_alpha(p)
    prod = p["q"] / (p["A"] * p["B"] * p["C"] * p["D"])
    disc = cmath.sqrt(z * z - 4.0 * prod)
    r1, r2 = 0.5 * (z + disc), 0.5 * (z - disc)
    return (r2, r1) if abs(r1) >= abs(r2) else (r1, r2)


def draw_cdqh_polyform(rng):
    """Domain where the explicit double sums are well conditioned."""
    while True:
        q = rng.uniform(0.62, 0.74)
        vals = [rng.uniform(0.3, 0.8) for _ in range(4)]
        if not _distinct(vals, q):
            continue
        p = {"family": CDQH, "q": q, "A": vals[0], "B": vals[1], "C": vals[2], "D": vals[3]}
        return p, rng.uniform(2.4, 3.4) * rng.choice([1.0, -1.0])


def limit_gamma(p):
    """Scale of the spectral cut, or None for families without one."""
    fid, q = p["family"], p["q"]
    if fid == "al-salam-chihara":
        return 2 * cmath.sqrt(q / (p["A"] * p["B"] * p["delta"]))
    if fid == "cont-q-hermite":
        return 2 * cmath.sqrt(q / (p["A"] * p["delta"]))
    if fid == "cont-big-q-hermite":
        return 2 * cmath.sqrt(p["a"] * q / p["A"])
    return None


def draw_limit(rng, fid, q_range=(0.35, 0.65), positive_delta=False):
    """A comfortable (family parameters, z) draw for a limit family."""
    while True:
        q = rng.uniform(*q_range)
        p = {"family": fid, "q": q}
        for name in LIMIT_PARAMS[fid]:
            if name in ("A", "B", "C"):
                p[name] = rng.uniform(0.2, 0.85)
            elif name == "delta":
                sign = 1.0 if positive_delta else rng.choice([1.0, -1.0])
                p[name] = sign * rng.uniform(0.35, 0.9)
            else:
                p[name] = -rng.uniform(0.3, 1.4)
        shape = [p[k] for k in ("A", "B", "C") if k in p]
        if len(shape) > 1 and not _apart(shape, 0.01):
            continue  # nearly equal parameters make the double sums cancel
        gamma = limit_gamma(p)
        z = rng.uniform(1.3, 2.3) * abs(gamma) if gamma is not None else rng.uniform(2.0, 3.4)
        arguments = []
        if fid == "big-q-laguerre":
            arguments = [q / (p["B"] * p["C"] * z), q / (p["A"] * p["C"] * z), q / (p["A"] * p["B"] * z)]
        elif fid == "wall":
            arguments = [q / (p["A"] * p["B"] * z), q / (p["A"] * z), q / (p["B"] * z)]
        elif fid == "al-salam-carlitz1":
            arguments = [q / (p["A"] * p["delta"] * z), q / (p["delta"] * z), 1 / z]
        elif fid == "limit-asc1":
            arguments = [q / (p["delta"] * z), 1 / z]
        elif fid == "q-bessel-order":
            arguments = [1 / z, p["a"] * q / z]
        elif fid == "limit-wall":
            arguments = [q / (p["A"] * z)]
        if fid == "al-salam-chihara" and 0.95 <= abs(p["B"] * _roots(p, z)[1]) <= 1.25:
            continue  # solution 2 finds no convergent representation there
        if all(_comfortable(d) for d in arguments) and all(
            _away_from_lattice(d, q) for d in arguments if abs(d) > 1
        ) and all(_away_from_lattice(d, q) for d in _pair_arguments(p, z)):
            return p, z


def _roots(p, z):
    """(large, small) roots of lambda^2 - z lambda + gamma^2 / 4."""
    gamma = limit_gamma(p)
    disc = cmath.sqrt(z * z - gamma * gamma)
    return 0.5 * (z + disc), 0.5 * (z - disc)


def _pair_arguments(p, z):
    """Series parameters built from the growth roots lambda_-+ of the
    cut-carrying families; one close to q^-m makes a series nearly
    terminate and cancel (e.g. B lambda_- = 0.9996 for al-salam-chihara)."""
    if limit_gamma(p) is None:
        return []
    roots = _roots(p, z)
    A = p["A"]
    if p["family"] == "al-salam-chihara":
        scales = (A, p["B"], A * p["B"] / p["q"], A * p["delta"])
    elif p["family"] == "cont-q-hermite":
        scales = (A, A * p["delta"])
    else:
        scales = (A, 1 / p["a"])
    return [s * lam for s in scales for lam in roots]


def draw_family(rng, fid, **kw):
    """(params, z) for any of the twelve families; z is the recurrence
    argument (for cdqh, x / alpha).  Keywords go to ``draw_limit``."""
    if fid == CDQH:
        p, x = draw_cdqh(rng)
        return p, complex(x) / cdqh_alpha(p)
    return draw_limit(rng, fid, **kw)


def cut_point(p, eps):
    """Recurrence argument at distance ``eps`` (in x) beyond the cut end."""
    if p["family"] == CDQH:
        return (1.0 + eps) / cdqh_alpha(p)
    return limit_gamma(p) * (1.0 + eps)
