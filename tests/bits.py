"""Recorded bits of library outputs that numpy's SIMD dispatch cannot change.

Each group below rebuilds one seeded set of inputs and records every
output exactly: a value as its type and ``float.hex`` parts, an error as
its class and message, a command's output as the text it prints.
``bits.json`` holds one SHA-256 per chunk of ``CHUNK`` records, and
``test_bits.py`` recomputes every chunk, one test each.  A change that
keeps the bits leaves ``bits.json`` alone; one that changes them on
purpose rewrites it and names the chunks that moved.

    PYTHONPATH=src python tests/bits.py --check   # name each chunk that moved
    PYTHONPATH=src python tests/bits.py --write   # record the current bits

A moved chunk's records print with ``bits.records(group)``; comparing
them with the same records at the parent commit finds the first input
whose output changed.

Complex array products and ``np.abs`` round differently on numpy's
baseline SIMD tier, so a digest of a grid weight, say, would fail on a
machine where the kernel is right.  Such outputs are not recorded:
``test_grid_passes.py`` keeps the former grid kernels as copies, and CI
runs this corpus with every dispatched feature disabled.
"""

import argparse
import cmath
import contextlib
import hashlib
import io
import json
import math
import random
import sys
from pathlib import Path
from unittest import mock

import numpy as np

from qdhahn import cdqhahn, cli, family, limits, qseries, verify
from qdhahn.errors import Overflow, QdhError
from qdhahn.qseries import SeriesSpec, TruncationPolicy
from qdhahn.recurrence import coeff_table

PATH = Path(__file__).with_name("bits.json")
CHUNK = 250


def hexed(value):
    """A number as its type and exact bits, signed zeros included."""
    if isinstance(value, tuple):
        return " ".join(map(hexed, value))
    value_type = type(value).__name__
    value = complex(value)
    return f"{value_type}:{value.real.hex()}:{value.imag.hex()}"


def outcome(fn, *args):
    """The value as its exact bits, or the error class and message."""
    try:
        value = fn(*args)
    except QdhError as exc:
        return f"{type(exc).__name__}: {exc}"
    return hexed(value)


# ---------------------------------------------------------------------------
# The scalar summing loop, qseries._phi_core.
# ---------------------------------------------------------------------------


def phi_core_corpus(rng, count):
    """``count`` seeded (spec, policy) pairs for the scalar series loop:
    terminating and nonterminating series, real and complex parameters,
    r = s + 1 and r != s + 1, denominators that vanish, parameters near
    the double range and term budgets small enough to run out."""
    def param(lo, hi):
        value = rng.uniform(lo, hi) * rng.choice((1, -1))
        return value * cmath.exp(1j * rng.uniform(-3, 3)) if rng.random() < 0.5 else value

    corpus = []
    for _ in range(count):
        q = 0.5 if rng.random() < 0.1 else rng.uniform(0.1, 0.9)
        numerator = [param(0.05, 2.5) for _ in range(rng.randint(0, 4))]
        denominator = [param(0.05, 2.5) for _ in range(rng.randint(0, 3))]
        kind = rng.random()
        if numerator and kind < 0.35:
            numerator[0] = q ** -rng.randint(0, 40)
        if denominator and kind < 0.15:
            denominator[0] = q ** -rng.randint(0, 12)
        if numerator and 0.9 < kind:
            numerator[-1] = param(1e150, 1e160)
        policy = TruncationPolicy(rel_tol=rng.choice((1e-12, 1e-15, 1e-6)),
                                  max_terms=rng.choice((5000, 5000, 40, 8)))
        corpus.append((SeriesSpec(tuple(numerator), tuple(denominator), q, param(0.01, 1.3)),
                       policy))
    return corpus


def shaped_specs(rng, r, s, q):
    """Series of shape (r, s): open and terminating ones, with arguments
    inside, near and outside the unit disk."""
    def param(lo, hi):
        return complex(rng.uniform(lo, hi) * cmath.exp(1j * rng.uniform(-1.0, 1.0)))

    for trial in range(12):
        numerator = [param(0.05, 1.5) for _ in range(r)]
        denominator = [param(0.05, 1.2) for _ in range(s)]
        if r and trial % 3 == 0:  # ends at k = m
            numerator[trial % r] = q ** -rng.randint(0, 6)
        z = param(0.05, (0.5, 0.95, 0.999, 3.0)[trial % 4]) * cmath.exp(2j * trial)
        yield SeriesSpec(tuple(numerator), tuple(denominator), q, z)


def real_shaped_specs(rng, r, s, q):
    """Real series of shape (r, s), which the scalar loop sums in floats:
    parameters of either sign, 0.0 among them, imaginary parts of 0.0 and
    -0.0, exact q^-m endings, and for r <= s arguments up to |z| = 30,
    some with a numerator parameter large enough that the terms leave the
    double range."""
    def param(lo, hi):
        return complex(rng.choice((1, -1)) * rng.uniform(lo, hi), rng.choice((0.0, -0.0)))

    for trial in range(16):
        numerator = [param(0.05, 2.5) for _ in range(r)]
        denominator = [param(0.05, 2.5) for _ in range(s)]
        if r and trial % 4 == 1:  # the transform identities pass (a, 0.0)
            numerator[trial % r] = 0.0
        if s and trial % 8 == 2:
            denominator[0] = complex(0.0, -0.0)
        if r and trial % 3 == 0:  # ends at k = m
            numerator[trial % r] = q ** -rng.randint(0, 6)
        reach = (0.5, 0.95, 0.999, 3.0)[trial % 4] if r > s else (0.5, 3.0, 12.0, 30.0)[trial % 4]
        if r and r <= s and trial % 8 == 7:
            numerator[0] = param(1e100, 1e120)
        yield SeriesSpec(tuple(numerator), tuple(denominator), q, param(0.01, reach))


def loop_corpus():
    """The scalar loop's corpus: ``phi_core_corpus`` and, for every shape
    with r <= 3 and s <= 2, complex and real shaped specs under three
    policies."""
    cases = phi_core_corpus(random.Random(17), 1500)
    for r in range(4):
        for s in range(3):
            rng = random.Random(10 * r + s)
            specs = [spec for q in (0.1, 0.5, 0.9) for spec in shaped_specs(rng, r, s, q)]
            specs += [spec for q in (0.05, 0.5, 0.95) for spec in real_shaped_specs(rng, r, s, q)]
            cases += [(spec, policy) for spec in specs
                      for policy in (qseries.DEFAULT_POLICY, TruncationPolicy(max_terms=60),
                                     TruncationPolicy(rel_tol=1e-15))]
    return cases


def loop_exits():
    """One series for each way out of the scalar loop."""
    q = 0.5
    default, budget = qseries.DEFAULT_POLICY, TruncationPolicy
    return [
        # settles past 800 terms; the slow ratio past 800 terms
        (SeriesSpec((0.3,), (), q, 0.99), default),
        (SeriesSpec((0.3,), (), q, 0.997), default),
        (SeriesSpec((0.3, 0.2), (0.6,), q, 0.99 * cmath.exp(0.3j)), default),
        (SeriesSpec((0.3, 0.2), (0.6,), q, 0.999 * cmath.exp(0.3j)), default),
        # the term budget before and after 800 terms
        (SeriesSpec((0.3,), (), q, 0.99), budget(max_terms=60)),
        (SeriesSpec((0.3,), (), q, 0.99), budget(max_terms=900)),
        (SeriesSpec((q ** -30, 0.4), (0.3,), q, 0.9), budget(max_terms=20)),
        # a denominator that vanishes, before an ending or in an open series
        (SeriesSpec((q ** -4, 0.4), (q ** -1,), q, 0.3), default),
        (SeriesSpec((0.3, 0.4), (q ** -2,), q, 0.3), default),
        # divergent shapes
        (SeriesSpec((0.3, 0.4, 0.5), (0.6,), q, 0.3), default),
        (SeriesSpec((0.3, 0.4), (0.6,), q, 1.5), default),
        # q^k to a negative power past the double range; a sum past it
        (SeriesSpec((2.0 ** 1000, 0.5, 0.5), (), 0.1, 0.5), default),
        (SeriesSpec((q ** -6,), (), q, 1e300), default),
        # nan and inf parameters and arguments
        (SeriesSpec((math.nan, 0.4), (0.6,), q, 0.3), default),
        (SeriesSpec((0.3, 0.4), (math.inf,), q, 0.3), default),
        (SeriesSpec((0.3, 0.4), (0.6,), q, math.nan), default),
        (SeriesSpec((0.3,), (0.6,), q, complex(math.inf, 0.0)), default),
        (SeriesSpec((0.3,), (0.6, 0.2), q, complex(math.nan, 1.0)), default),
        # terms that grow before they settle, and alternating terms
        (SeriesSpec((), (0.2,), q, 40.0), default),
        (SeriesSpec((0.9,), (), 0.95, -0.98), default),
        # real numerator or denominator products past the double range
        # (inf in floats, nan parts in complex arithmetic), a term of 0
        # and terms past the double range
        *[(spec, default) for spec in (
            SeriesSpec((0.3,), (1e200, 1e200, 1e200), 0.5, 0.3),
            SeriesSpec((1e200, 1e200, 3.0), (1e-3, 2e-3), 0.9, 0.5),
            SeriesSpec((1e160, 1e150), (0.5,), 0.999, 0.5),
            SeriesSpec((1e200, 1e200), (1e-100,), 0.9999, 0.5),
            SeriesSpec((0.3, 0.4), (0.6,), 0.5, 0.0),
            SeriesSpec((), (0.2,), 0.5, 1e300))],
    ]


def phi_core_records(cases):
    """``_phi_core``'s sum, weighted term total and tail bound at each
    (spec, policy) case."""
    return lambda: (
        f"{(s.numerator, s.denominator, s.q, s.argument, p.rel_tol, p.max_terms)!r} -> "
        f"{outcome(qseries._phi_core, s, p)}" for s, p in cases())


# ---------------------------------------------------------------------------
# Infinite products, termination orders and the balanced 3-phi-2.
# ---------------------------------------------------------------------------


def real_qpoch_draws(seed, count):
    """(a, q) with real a of either sign and imaginary part 0.0 or -0.0,
    |a| up to 40 and every fifth up to 1e300.  Every tenth a is an exact
    q^-j or -q^-j, every tenth q is 0.5 (where a factor 1 - a q^j can be
    exactly 0), and every twentieth q is below 1e-5 with a between 1/q and
    the cutoff over q^2, so that the last two factors multiplied in are
    negative."""
    rng = random.Random(seed)
    draws = []
    for i in range(count):
        q = 0.5 if i % 10 == 3 else rng.uniform(0.05, 0.95)
        a = 10 ** rng.uniform(-5, 300) if i % 5 == 0 else rng.uniform(0, 40)
        if i % 10 == 1 or i % 10 == 3:
            a = q ** -rng.randint(0, 40)
        elif i % 20 == 7:
            q = 10 ** rng.uniform(-12, -5)
            a = 10 ** rng.uniform(-math.log10(q), math.log10(qseries._qpoch_cutoff(q) / q**2))
        draws.append((complex(rng.choice((1, -1)) * a, rng.choice((0.0, -0.0))), q))
    return draws


def termination_points(q):
    """Parameters at, near and away from q^-m, 1 and the early-exit floor
    1 - 2e-13, real and complex."""
    points = [1.0, 1 + 1e-13, 1 - 1e-13, 1 + 2e-13, 1 - 2e-13, 1 - 3e-13, 0.37, 0.0, -1.0,
              -(q ** -3), 1j, 1e-300, 1e300, 1 - 1e-12, complex(1.0, 1e-13), complex(1.0, 2e-13),
              *np.nextafter(1 - 2e-13, [0.0, 2.0]), *np.nextafter(1.0, [0.0, 2.0])]
    for m in (0, 1, 2, 5, 17, 40):
        points += [q ** -m * (1 + rel) for rel in (1e-14, -1e-14, 9.9e-14, -9.9e-14, 1e-13,
                                                   -1e-13, 1e-9)]
        points += [q ** -m * cmath.exp(1e-14j), q ** (-m - 0.5)]
    rng = random.Random(int(q * 1000))
    points += [complex(rng.uniform(-2, 2), rng.uniform(-1e-12, 1e-12)) for _ in range(100)]
    return points


def termination_records():
    for q in (0.05, 0.5, 0.9, 0.999):
        for p in termination_points(q):
            for max_order in (0, 3, 5000):
                order = qseries.termination_order(p, q, max_order)
                yield f"{complex(p)!r} {q!r} {max_order} -> {order!r}"


def balanced_draws(rng, count, lo, outside):
    """``count`` balanced-series parameter sets (a, b, c, d, e, q), every
    third real, with a, b, c of modulus in lo[0] and d, e in lo[1], whose
    argument de/(abc) lies outside the unit disk or, if not ``outside``,
    inside it."""
    draws = []
    while len(draws) < count:
        phase = 0.0 if len(draws) % 3 == 0 else 1.0
        a, b, c, d, e = (rng.uniform(*lo[i > 2]) * cmath.exp(1j * rng.uniform(-phase, phase))
                         for i in range(5))
        if (abs(d * e / (a * b * c)) > 1) == outside:
            draws.append((a, b, c, d, e, rng.uniform(0.2, 0.8)))
    return draws


def phi32_records(seed, count, lo, outside):
    return lambda: (f"{args!r} -> {outcome(qseries.phi32, *args)}"
                    for args in balanced_draws(random.Random(seed), count, lo, outside))


# ---------------------------------------------------------------------------
# Sampled checks, the polynomial overflow locator and coefficient tables.
# ---------------------------------------------------------------------------


def sampled_check_records():
    for seed in range(4):
        reports = [verify.check_three_term_transform(50, seed),
                   verify.check_c_eq_q_reduction(20, seed), *verify.check_transforms(100, seed)]
        for report in reports:
            yield json.dumps(report.to_dict(), sort_keys=True)


# runs that leave the double range in some of their cells: P_n of
# q-bessel-order (a = -1) at z = 40 from n ~ 400 on, of fourth-limit at
# z = 2.5 from n = 774 on
PAST_THE_RANGE = [
    (limits.QBesselOrder(0.5, -1.0), np.array([2.0, 40.0, -40.0, 30.0 + 20.0j]), 600),
    (limits.FourthLimit(0.5), np.linspace(2.0, 2.6, 7), 780),
]


def poly_rows_records():
    """The point and degree that ``poly_rows`` names past the double
    range, or the number of rows it returns, for grids in either order,
    one point and each point alone."""
    for fam, z, n in PAST_THE_RANGE:
        for points in (z, z[::-1], z[-1:], *z.tolist()):
            for n_lo in (0, n - 200, n - 5):
                try:
                    found = len(family.poly_rows(fam, points, n_lo, n))
                except Overflow as exc:
                    found = str(exc)
                yield f"{fam.family_id} {np.ravel(points).tolist()!r} {n_lo} {n} -> {found}"


# coeff_table(f, 2048) of every family, grown in steps as cf_adaptive
# grows it, for real, complex and signed parameters and for two q whose
# low powers leave the double range: the SHA-256 of every entry's type
# and float.hex pair, or the exception raised
PIN_SIZES = (32, 33, 36, 64, 71, 128, 135, 256, 263, 512, 519, 1024, 1031, 2048)
PIN_SETS = {
    "real": (0.5, {"A": 0.35, "B": 0.45, "C": 0.3, "D": 0.4, "delta": 0.7, "a": 1.6}),
    "complex": (0.83, {"A": 0.3 + 0.2j, "B": 0.3 - 0.2j, "C": -0.6 + 0.1j,
                       "D": 0.45 - 0.05j, "delta": 0.5 - 0.9j, "a": -1.2 + 0.4j}),
    "signed": (0.97, {"A": -1.7, "B": 2.5, "C": 0.97**-3, "D": -0.2, "delta": -0.3, "a": -0.8}),
    "tiny-q": (1e-200, {"A": 0.35, "B": 0.45, "C": 0.3, "D": 0.4, "delta": 0.7, "a": 1.6}),
    "subnormal-q": (1e-310, {"A": 0.35, "B": 0.45, "C": 0.3, "D": 0.4, "delta": 0.7, "a": 1.6}),
}


def pinned_table(cls, q, params):
    fam = cls(q, **{name: params[name] for name in cls.param_names})
    table = ([], [])
    try:
        for size in PIN_SIZES:
            coeff_table(fam, size, table)
    except ArithmeticError as exc:
        return type(exc).__name__
    digest = hashlib.sha256()
    for v in table[0] + table[1]:
        digest.update(f"{hexed(v)};".encode())
    return digest.hexdigest()


def coeff_table_records():
    for cls in (cdqhahn.CDQHParams, *limits.FAMILIES.values()):
        for key, (q, params) in PIN_SETS.items():
            yield f"{cls.family_id} {key} -> {pinned_table(cls, q, params)}"


# ---------------------------------------------------------------------------
# What the CLI prints.
# ---------------------------------------------------------------------------

CDQH_ARGS = ("--q", ".5", "--A", ".3", "--B", ".4", "--C", ".35", "--D", ".45")
LIMIT_ARGS = {
    "big-q-laguerre": ("--A", ".3", "--B", ".4", "--C", ".35"),
    "wall": ("--A", ".3", "--B", ".4"),
    "limit-wall": ("--A", ".3"),
    "fourth-limit": (),
    "al-salam-chihara": ("--A", ".3", "--B", ".4", "--delta", ".7"),
    "al-salam-carlitz1": ("--A", ".3", "--delta", ".7"),
    "limit-asc1": ("--delta", ".7"),
    "cont-q-hermite": ("--A", ".3", "--delta", ".7"),
    "limit-q-hermite": ("--delta", ".7"),
    "cont-big-q-hermite": ("--A", ".3", "--a", "1.6"),
    "q-bessel-order": ("--a", "-1"),
}
FORMATS = ("csv", "json", "text")

TABLE_CASES = [
    *[("table", "--family", fid, "--n-lo", "1", "--n-hi", "12", "--grid", "-3:3.5:17", *args)
      for fid, args in [("cdqh", CDQH_ARGS),
                        *[(fid, ("--q", ".5", *a)) for fid, a in LIMIT_ARGS.items()]]],
    ("table", "--family", "wall", "--n-lo", "3", "--n-hi", "2", "--grid", "1:2:3", "--q", ".5",
     *LIMIT_ARGS["wall"]),
]
EVAL_CASES = [
    ("eval", "--family", "cdqh", "--what", "weight", "--grid", "-0.99:0.99:9", *CDQH_ARGS),
    ("eval", "--family", "fourth-limit", "--what", "cf", "--cf-form", "power-sums",
     "--grid", "-2.5:3:6", "--q", ".5"),
    ("eval", "--family", "wall", "--what", "poly", "--n", "4", "--z", "2+0.5i",
     "--q", ".5", *LIMIT_ARGS["wall"]),
    ("eval", "--family", "al-salam-chihara", "--what", "cf", "--x", "0.3", "--side", "above",
     "--q", ".5", *LIMIT_ARGS["al-salam-chihara"]),
]
ZERO_CASES = [
    ("zeros", "--f", "fourth-limit", "--n", "-1", "--q", "0.5", "--interlace"),
    ("zeros", "--f", "fourth-limit", "--n", "0", "--q", "0.5", "--scan-lo", "1e-4",
     "--scan-hi", "1e4"),
    ("zeros", "--f", "q-bessel-order:num", "--q", ".5", "--a", "-.8", "--scan-lo", ".02",
     "--scan-hi", "1.8"),
]
FORMAT_CASES = TABLE_CASES + EVAL_CASES + ZERO_CASES

EDGE_ROWS = [
    [float("nan"), float("inf"), -float("inf")],
    [-0.0, 5e-324, 1e300],
    [np.float64(0.1), np.float64(-2.5e-310), 1 / 3],
    [2 + 1j, 0.5, -0.25],
    ["(2-3j)", complex(-1.5, 1e-300), complex(float("nan"), 0)],
]


def crafted_table(n_rows, n_points):
    """P_n values with every kind of cell the row builder tells apart: an
    imaginary part below 1e-300 (0, -0.0, +-1e-301) prints the real part,
    one at 1e-300 or above, nan or inf prints the complex value; real
    parts include nan and inf."""
    imags = [0.0, -0.0, 1e-301, -1e-301, 1e-300, 1e-299, -1e-299, math.nan, math.inf, -math.inf]
    reals = [0.5, -2.5e-310, 1 / 3, -7.25e12, math.nan, math.inf, -math.inf]
    cells = [complex(re, im) for im in imags for re in reals]
    count = n_rows * n_points
    return np.array((cells * (count // len(cells) + 1))[:count]).reshape(n_rows, n_points)


def printed(call, *args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        call(*args)
    return out.getvalue()


def qdh(*argv):
    """What ``qdh argv`` prints on stdout, run in process."""
    return printed(lambda: cli.main(list(argv), standalone_mode=False))


def emit_records():
    for rows in (EDGE_ROWS, []):
        for comment in (None, "family=wall q=0.5 A=0.29999999999999999 B=-0+1i"):
            for fmt in FORMATS:
                text = printed(cli._emit_rows, rows, ("n_or_x", "re", "im"), fmt, comment)
                yield f"{len(rows)} rows {comment!r} {fmt} -> {text!r}"


def pointwise_weight(fam, x, weight=family.weight):
    return np.array([weight(fam, point) for point in x.tolist()])


def command_records():
    # the weight's grid kernels round differently on numpy's SIMD tiers,
    # so a weight grid prints each point's scalar weight here
    with mock.patch.object(family, "weight", pointwise_weight):
        for argv in FORMAT_CASES:
            for fmt in FORMATS:
                yield f"{' '.join(argv)} --format {fmt} -> {qdh(*argv, '--format', fmt)!r}"


def crafted_table_records():
    """``qdh table``'s cells from P_n values of every kind."""
    table = crafted_table(9, 11)
    with mock.patch.object(family, "poly_rows", lambda fam, z, n_lo, n_hi: table):
        for fmt in FORMATS:
            text = qdh("table", "--family", "wall", "--n-lo", "2", "--n-hi", "10", "--grid",
                       "1:2:11", "--q", ".5", *LIMIT_ARGS["wall"], "--format", fmt)
            yield f"{fmt} -> {text!r}"


# group name -> its records, in order
GROUPS = {
    "phi-core/corpus": phi_core_records(loop_corpus),
    "phi-core/exits": phi_core_records(loop_exits),
    "qpoch/real": lambda: (f"{a!r} {q!r} -> {outcome(qseries.qpoch, a, q)}"
                           for a, q in real_qpoch_draws(23, 20000)),
    "termination-order": termination_records,
    "phi32/outside": phi32_records(11, 400, ((0.1, 1.6), (0.1, 1.8)), True),
    "phi32/inside": phi32_records(13, 200, ((0.3, 1.6), (0.1, 1.2)), False),
    "phi32/no-convergent-form": phi32_records(12, 200, ((1.2, 2.6), (2.0, 4.5)), True),
    "verify/sampled": sampled_check_records,
    "poly-rows/past-the-range": poly_rows_records,
    "coeff-table": coeff_table_records,
    "cli/emit-rows": emit_records,
    "cli/commands": command_records,
    "cli/crafted-table": crafted_table_records,
}


def records(group):
    return list(GROUPS[group]())


def group_digests(group):
    """Chunk name ("group#i") -> the SHA-256 of its records, for one group."""
    lines = records(group)
    return {f"{group}#{start // CHUNK}":
            hashlib.sha256("\n".join(lines[start:start + CHUNK]).encode()).hexdigest()
            for start in range(0, len(lines), CHUNK)}


def digests():
    """Chunk name ("group#i") -> the SHA-256 of its records."""
    return {name: digest for group in GROUPS for name, digest in group_digests(group).items()}


def moved(recorded, current):
    """The chunks whose digest changed, appeared or went."""
    return sorted(name for name in recorded.keys() | current.keys()
                  if recorded.get(name) != current.get(name))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--check", action="store_true", help="name each chunk that moved")
    action.add_argument("--write", action="store_true", help="record the current bits")
    args = parser.parse_args()
    current = digests()
    if args.write:
        PATH.write_text(json.dumps(current, indent=1, sort_keys=True) + "\n")
        return 0
    changed = moved(json.loads(PATH.read_text()), current)
    for name in changed:
        print(f"moved: {name}")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
