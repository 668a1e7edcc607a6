"""The three benchmark workloads: their batches, how each operation is
run through the library's public entry points, and how each output is
checked.

A batch is a list of operations (plain dicts, see ``inputs``).  Running
an operation is timed; checking it against ``oracles`` happens after the
batch, outside the timed region.  Operations flagged ``defect`` hit a
known defect (ROADMAP item 5, and those listed in README.md).  They stay
in every batch, so ``error_rate`` records them, while ``failed`` counts
only failures outside that list.
"""

from __future__ import annotations

import contextlib
import io
import math
import re
import statistics
import sys
import time
from array import array
from dataclasses import dataclass

import calibration
import inputs as I
import oracles as O

TABLE_N_HI = 50
TABLE_POINTS = 100
FORWARD_STEPS = 1000
CUT_EPS = (0.05, 0.005, 0.0005)  # settles at CF depth ~64, ~256, ~1024
# the cheap off-cut fractions are over half of a sweep batch, so its p50
# falls inside their cluster, not in the gap above it
OFF_CUT_POINTS = 5
# minimal solutions of the q^(kn)-damped families leave the double range
# near n = 25 (see the underflow probe below), so draws stop at 15
LIMIT_SOLUTION_N = 15
POINTWISE_ROUNDS = 30  # ~2100 closed-form operations per batch
DEFECT_SOLUTION_N = 4000  # q**n underflows; see ROADMAP item 5
# the seeded checks of `qdh verify --check all`, one CLI run each
SEEDED_CHECKS = ("contiguous", "three-term-transform", "c-eq-q-reduction", "symmetries",
                 "limits", "transforms")
# `qdh verify --check all` passes at seeds 0..31; of seeds 0..399 these
# fail (max_rel_error 1.4e-9, 1.1e-9, 1.0e-4 and 2.9e-8), so they run as
# known-defect probes and batch i checks at seed (--seed + i) mod 32
CHECK_SEEDS = 32
CHECK_FAILS = (("c-eq-q-reduction", 77), ("c-eq-q-reduction", 228),
               ("three-term-transform", 331), ("three-term-transform", 381))
# check_orthogonality's two parameter sets (q, A, B, C, D) and degree range
ORTHO_CASES = {"reduced": (0.5, 0.4, 0.4, 0.5, 0.4), "associated": (0.5, 0.4, 0.4, 0.7, 0.4)}
ORTHO_N_MAX = 6
# the --fast node count: the Gauss rule is then orthogonal to 1.8e-7,
# inside the check's 1e-6 (cosine to 1e-14)
GRAM_NODES = 600


# ---------------------------------------------------------------------------
# Batches.
# ---------------------------------------------------------------------------


def batch(workload: str, seed: int, index: int) -> list:
    rng = I.rng_for(workload, seed, index)
    return {"verify-checks": _verify_batch, "recurrence-sweep": _sweep_batch,
            "pointwise-closed-forms": _pointwise_batch}[workload](rng, seed, index)


def _verify_batch(rng, seed, index):
    check_seed = str((seed + index) % CHECK_SEEDS)
    # each report line counts as one operation
    ops = [{"kind": "cli", "reports": True, "argv": ["verify", "--check", check_id, "--seed", check_seed]}
           for check_id in SEEDED_CHECKS]
    # the orthogonality check's work at GRAM_NODES: its pole scan and its
    # Gram matrices, both quadratures, both parameter sets
    ops.append({"kind": "pole_free", "case": "associated"})
    ops += [{"kind": "gram", "case": case, "method": method, "nodes": GRAM_NODES}
            for case in ORTHO_CASES for method in ("gauss", "cosine")]
    # known defect: the --fast node count (600) fails the check's drift
    # gate against 1200 nodes (exit 3)
    ops.append({"kind": "cli", "defect": True,
                "argv": ["verify", "--check", "orthogonality", "--fast", "--seed", check_seed]})
    # known defects: checks that FAIL at a few seeds
    ops += [{"kind": "cli", "defect": True, "argv": ["verify", "--check", check_id, "--seed", str(s)]}
            for check_id, s in CHECK_FAILS]
    return ops


def _family_args(p):
    args = ["--family", p["family"], "--q", repr(p["q"])]
    for name in ("A", "B", "C", "D", "delta", "a"):
        if name in p:
            args += ["--" + name, repr(p[name])]
    return args


def _sweep_batch(rng, seed, index):
    ops = []
    mp_checked = rng.sample(I.FAMILY_IDS, 3)
    for fid in I.FAMILY_IDS:
        p, z = I.draw_family(rng, fid, positive_delta=True)
        if fid == I.CDQH:
            lo, hi = 1.3 / I.cdqh_alpha(p).real, 2.8 / I.cdqh_alpha(p).real
        elif I.limit_gamma(p) is not None:
            lo, hi = 1.3 * abs(I.limit_gamma(p)), 2.3 * abs(I.limit_gamma(p))
        else:
            lo, hi = 2.0, 3.4
        grid = f"{lo!r}:{hi!r}:{TABLE_POINTS}"
        sample = [[rng.randrange(TABLE_POINTS), rng.randrange(1, TABLE_N_HI + 1)] for _ in range(3)]
        ops.append({"kind": "table", "p": p, "grid": [lo, hi, TABLE_POINTS], "sample": sample,
                    "argv": ["table"] + _family_args(p) + ["--n-hi", str(TABLE_N_HI), "--grid", grid]})
        ops.append({"kind": "forward", "p": p, "z": [z.real, z.imag], "n": FORWARD_STEPS,
                    "mp": fid in mp_checked})
        if fid in I.CUT_FAMILIES:
            for eps in CUT_EPS:
                zc = complex(I.cut_point(p, eps))
                ops.append({"kind": "cf_adaptive", "p": p, "z": [zc.real, zc.imag]})
        else:  # no cut: fresh (parameters, point) pairs from the draw domain;
            # a point drawn for other parameters can break their comfort rules
            for _ in range(OFF_CUT_POINTS):
                pc, zc = I.draw_limit(rng, fid)
                ops.append({"kind": "cf_adaptive", "p": pc, "z": [zc, 0.0]})
    # known defect: a negative degree escapes as a ValueError traceback
    ops.append({"kind": "cli", "defect": True, "argv": [
        "eval", "--family", "cdqh", "--what", "poly", "--n", "-3", "--z", "2.5",
        "--q", ".5", "--A", ".3", "--B", ".4", "--C", ".35", "--D", ".45"]})
    return ops


def _weight_draw(rng, fid):
    """Weight draws with real gamma whose bracket series converge as
    written, so the 40-digit oracle can sum them directly."""
    while True:
        p, _ = I.draw_limit(rng, fid, positive_delta=True)
        if fid == "cont-big-q-hermite":
            p["a"] = -p["a"]
            if p["q"] / (p["A"] * p["a"]) > 0.81:
                continue
        if fid == "al-salam-chihara" and p["q"] * p["A"] * p["delta"] / p["B"] > 0.81:
            continue
        return p, rng.uniform(-0.95, 0.95)


def _pointwise_batch(rng, seed, index):
    ops = []
    for _ in range(POINTWISE_ROUNDS):
        for label in I.CDQH_LABELS:
            p, x = I.draw_cdqh(rng)
            ops.append({"kind": "solution", "p": p, "x": x, "label": label, "n": rng.randrange(0, 26)})
        for form in ("ratio", "ratio-alt", "pincherle"):
            p, x = I.draw_cdqh(rng)
            ops.append({"kind": "cf_stieltjes", "p": p, "x": x, "form": form})
        for form in ("reduced", "reduced-product"):
            p, x = I.draw_cdqh(rng, reduced=True)
            ops.append({"kind": "cf_stieltjes", "p": p, "x": x, "form": form})
        for _ in range(2):
            p, x = I.draw_cdqh_polyform(rng)
            ops.append({"kind": "explicit_poly", "p": p, "x": x, "n": rng.randrange(0, 11)})
        for fid in I.LIMIT_PARAMS:
            for idx in I.SOLUTION_INDICES[fid]:
                if idx not in I.FORMAL.get(fid, ()):
                    p, z = I.draw_limit(rng, fid)
                    ops.append({"kind": "limit_solution", "p": p, "z": z, "which": idx,
                                "n": rng.randrange(0, LIMIT_SOLUTION_N + 1)})
            forms = {"limit-wall": ("default", "confluent"),
                     "fourth-limit": ("default", "power-sums")}.get(fid, ("default",))
            for form in forms:
                p, z = I.draw_limit(rng, fid)
                ops.append({"kind": "limit_cf", "p": p, "z": z, "form": form})
            p, z = I.draw_limit(rng, fid)
            # the double sums are documented for degrees near 10; those
            # of big-q-laguerre and wall cancel sooner (see the probes)
            n_max = 6 if fid in ("big-q-laguerre", "wall") else 10
            ops.append({"kind": "limit_poly", "p": p, "z": z, "n": rng.randrange(0, n_max + 1)})
    for fid in I.WEIGHT_FAMILIES:
        p, x = _weight_draw(rng, fid)
        ops.append({"kind": "limit_weight", "p": p, "x": x})
    # one scan per batch at the README's base q = 0.5, cycling the order
    # with the batch; a scan costs ~0.1 s, so a random base or order would
    # make batch times bimodal (the scan misses a zero at q = 0.72: probe)
    ops.append({"kind": "zeros", "q": 0.5, "n": index % 4 - 1})
    # known defects: closed forms past q**n underflow, a minimal solution
    # returned as a denormal once it leaves the double range, al-salam-
    # chihara solution 2 near B lambda_- = 1.05, the fourth-limit double
    # sum past n ~ 28, the big-q-Laguerre double sum at n = 10 and small
    # q, the wall double sum at A - B = 5e-4, the two-index double sum at
    # n = 20, a zero scan that skips a zero at q = 0.72, and the CLI
    # printing nan with exit 0
    for label in I.CDQH_LABELS:
        p, x = I.draw_cdqh(rng)
        ops.append({"kind": "solution", "defect": True, "p": p, "x": x, "label": label,
                    "n": DEFECT_SOLUTION_N})
    ops.append({"kind": "limit_solution", "defect": True, "which": 1, "n": 25, "z": 2.426627338843389,
                "p": {"family": "limit-wall", "q": 0.45267364450866543, "A": 0.5753877893352477}})
    ops.append({"kind": "limit_solution", "defect": True, "which": 2, "n": 6, "z": 8.038238979783184,
                "p": {"family": "al-salam-chihara", "q": 0.6167407019537017, "A": 0.20646834629881372,
                      "B": 0.8140602596084661, "delta": 0.4209736128808016}})
    ops.append({"kind": "limit_poly", "defect": True, "n": 10, "z": 2.39871087090492,
                "p": {"family": "big-q-laguerre", "q": 0.3711180294351934, "A": 0.24877588267981485,
                      "B": 0.20227905604611052, "C": 0.42491584733632465}})
    ops.append({"kind": "limit_poly", "defect": True, "n": 9, "z": 3.277351678525954,
                "p": {"family": "wall", "q": 0.4574256874431387, "A": 0.2054681196467904,
                      "B": 0.2049569497365659}})
    ops.append({"kind": "zeros", "defect": True, "q": 0.7193273853311071, "n": -1})
    ops.append({"kind": "limit_poly", "defect": True, "n": 40, "z": rng.uniform(2.0, 3.4),
                "p": {"family": "fourth-limit", "q": rng.uniform(0.35, 0.55)}})
    ops.append({"kind": "explicit_poly", "defect": True, "alt": True, "n": 20,
                "x": rng.uniform(1.5, 2.5) * rng.choice([1.0, -1.0]),
                "p": {"family": I.CDQH, "q": 0.5, "A": 0.3, "B": 0.4, "C": 0.35, "D": 0.45}})
    ops.append({"kind": "cli", "defect": True, "argv": [
        "eval", "--family", "fourth-limit", "--what", "poly", "--n", "30", "--z", "2.5", "--q", ".5"]})
    return ops


# ---------------------------------------------------------------------------
# Running operations.
# ---------------------------------------------------------------------------


class Library:
    """The package's public modules, imported once per process."""

    def __init__(self):
        from qdhahn import cdqhahn, cli, limits, recurrence, verify

        self.cdqhahn, self.cli = cdqhahn, cli
        self.limits, self.recurrence, self.verify = limits, recurrence, verify
        self._out, self._err = io.StringIO(), io.StringIO()

    def family(self, p):
        if p["family"] == I.CDQH:
            return self.cdqhahn.CDQHParams(p["q"], p["A"], p["B"], p["C"], p["D"])
        return self.limits.FAMILIES[p["family"]](
            p["q"], **{k: p[k] for k in I.LIMIT_PARAMS[p["family"]]})

    def run_cli(self, argv):
        """``qdh <argv>`` through the console entry point; returns
        (exit code, stdout, stderr).  An exception escaping the entry
        point is a traceback the user would see.  The capture buffers are
        reused: click keeps a wrapper per stream it has written to."""
        out, err = self._out, self._err
        for buffer in (out, err):
            buffer.seek(0)
            buffer.truncate()
        saved = sys.argv
        sys.argv = ["qdh"] + list(argv)
        code = 0
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                self.cli.run()
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # the CLI contract forbids tracebacks
            code = 1
            err.write(f"traceback: {type(exc).__name__}: {exc}")
        finally:
            sys.argv = saved
        return code, out.getvalue(), err.getvalue()


def execute(lib: Library, op):
    """Run one operation; exceptions propagate to the caller."""
    kind = op["kind"]
    if kind == "cli" or kind == "table":
        return lib.run_cli(op["argv"])
    fam = lib.family(op["p"]) if "p" in op else None
    if kind == "solution":
        point = lib.cdqhahn.spectral_point(fam, x=op["x"])
        return lib.cdqhahn.solution(fam, point, op["label"], op["n"])
    if kind == "cf_stieltjes":
        point = lib.cdqhahn.spectral_point(fam, x=op["x"])
        return lib.cdqhahn.cf_stieltjes(fam, point, op["form"])
    if kind == "explicit_poly":
        point = lib.cdqhahn.spectral_point(fam, x=op["x"])
        fn = lib.cdqhahn.explicit_poly_ir if op.get("alt") else lib.cdqhahn.explicit_poly
        return fn(fam, point, op["n"])
    if kind == "limit_solution":
        return lib.limits.limit_solution(fam, op["z"], op["which"], op["n"])
    if kind == "limit_cf":
        return lib.limits.limit_cf(fam, op["z"], op["form"])
    if kind == "limit_poly":
        return lib.limits.limit_poly(fam, op["z"], op["n"])
    if kind == "limit_weight":
        return lib.limits.limit_weight(fam, op["x"])
    if kind == "forward":
        seq = lib.recurrence.forward_eval(fam, complex(*op["z"]), 0.0, 1.0, op["n"])
        return [(seq.scaled(n).mantissa, seq.scaled(n).log_scale) for n in _forward_cells(op)]
    if kind == "cf_adaptive":
        return lib.recurrence.cf_adaptive(fam, complex(*op["z"]))
    if kind == "gram":
        fam = lib.cdqhahn.CDQHParams(*ORTHO_CASES[op["case"]])
        return lib.verify.gram_matrix(lambda x: lib.cdqhahn.weight(fam, x), fam, fam.alpha.real,
                                      ORTHO_N_MAX, op["nodes"], op["method"])
    if kind == "pole_free":
        return lib.verify.transform_pole_free(lib.cdqhahn.CDQHParams(*ORTHO_CASES[op["case"]]))
    if kind == "zeros":
        fam = lib.limits.FourthLimit(op["q"])
        lists = []
        for n in (op["n"], op["n"] + 1):
            f = lib.limits.fourth_limit_series(fam, n)
            lo, hi = lib.limits.fourth_limit_zero_window(op["q"], n, 8)
            lists.append(lib.limits.find_zeros(f, lo, hi, max_zeros=8, expect=8))
        return lists, lib.limits.interlaces(lists[0], lists[1])
    raise KeyError(kind)


def _forward_cells(op):
    n = op["n"]
    return sorted({1, 50, n // 3, n // 2, n})


# ---------------------------------------------------------------------------
# Checking outputs.  Each check returns a list of outcomes, one per
# checked output: (passed, margin digits or None).
# ---------------------------------------------------------------------------


def _finite(value) -> bool:
    return math.isfinite(abs(complex(value)))


def _graded(err, tol):
    if not math.isfinite(err):
        return [(False, None)]
    return [(err <= tol, O.margin(tol, err))]


_REPORT = re.compile(r"^(PASS|FAIL) (\S+): points=\d+ max_rel_error=(\S+) threshold=(\S+)")
_NUMBER = re.compile(r"(?<![\w.])(?:nan|inf)(?![\w.])", re.IGNORECASE)


def check(lib: Library, op, out):
    kind = op["kind"]
    if kind == "cli":
        code, stdout, stderr = out
        if op.get("reports"):
            return _check_reports(code, stdout)
        return [(code == 0 and not _NUMBER.search(stdout), None)]
    if kind == "table":
        return _check_table(op, out)
    if kind == "forward":
        return _check_forward(op, out)
    if kind == "zeros":
        return [(_zeros_ok(op, *out), None)]
    if kind == "gram":
        return _check_gram(out)
    if kind == "pole_free":
        return [(out is True, None)]
    if kind == "cf_adaptive":
        value, _depth = out
        if not _finite(value):
            return [(False, None)]
        fam = lib.family(op["p"])
        z = complex(*op["z"])
        if op["p"]["family"] == I.CDQH:
            closed = lib.cdqhahn.cf_stieltjes(fam, lib.cdqhahn.spectral_point(fam, z=z))
        else:
            closed = lib.limits.limit_cf(fam, z)
        return _graded(O.rel(closed, 1.0 / value), O.CF_TOL)
    if not _finite(out):
        return [(False, None)]
    p = op["p"]
    if kind in ("solution", "limit_solution"):
        return _graded(_solution_residual(lib, op, out), O.RESIDUAL_TOL)
    if kind == "cf_stieltjes":
        z = complex(op["x"]) / I.cdqh_alpha(p)
        return _graded(O.rel(out, 1.0 / O.cf_value(p, z)), O.CF_TOL)
    if kind == "limit_cf":
        return _graded(O.rel(out, 1.0 / O.cf_value(p, op["z"])), O.CF_TOL)
    if kind in ("explicit_poly", "limit_poly"):
        z = complex(op["x"]) / I.cdqh_alpha(p) if kind == "explicit_poly" else op["z"]
        ref = O.poly_table(p, z, op["n"])[0][op["n"]]
        return _graded(abs(out - ref) / abs(ref), O.POLY_TOL)
    if kind == "limit_weight":
        return _graded(O.rel(out, O.mp_limit_weight(p, op["x"])), O.WEIGHT_TOL)
    raise KeyError(kind)


def _check_reports(code, stdout):
    """One outcome per report line; an exit code that contradicts the
    lines (0 with a FAIL, non-zero with none) fails every line.  The
    limit-edges report gates a ratio of successive deviations (threshold
    0.999), not an error, so it carries no accuracy margin."""
    outcomes = []
    for line in stdout.splitlines():
        m = _REPORT.match(line)
        if m is None:
            return [(False, None)]
        status, check_id, err, tol = m.group(1), m.group(2), float(m.group(3)), float(m.group(4))
        digits = None if check_id == "limit-edges" else O.margin(tol, err)
        outcomes.append((status == "PASS", digits))
    if not outcomes or (code == 0) != all(ok for ok, _ in outcomes):
        return [(False, None)] * max(len(outcomes), 1)
    return outcomes


def _check_gram(g):
    """Orthogonality: every off-diagonal entry against the geometric mean
    of its two diagonal entries, at the orthogonality check's threshold."""
    diag = [abs(g[n, n]) for n in range(len(g))]
    if not all(math.isfinite(d) and d > 0 for d in diag):
        return [(False, None)]
    err = max(abs(g[m, n]) / math.sqrt(diag[m] * diag[n])
              for m in range(len(g)) for n in range(m + 1, len(g)))
    return _graded(err, O.ORTHO_TOL)


def _solution_residual(lib, op, value):
    """Residual at index m = max(n, 1), whose three terms include the
    evaluated value; neighbours come from the same closed form."""
    n = op["n"]
    m = max(n, 1)
    if op["kind"] == "solution":
        fam = lib.family(op["p"])
        point = lib.cdqhahn.spectral_point(fam, x=op["x"])
        z = point.z

        def at(k):
            return value if k == n else lib.cdqhahn.solution(fam, point, op["label"], k)
    else:
        fam = lib.family(op["p"])
        z = op["z"]

        def at(k):
            return value if k == n else lib.limits.limit_solution(fam, z, op["which"], k)
    return O.relative_residual(op["p"], z, at(m - 1), at(m), at(m + 1), m)


def _check_table(op, out):
    code, stdout, _stderr = out
    lines = stdout.strip().splitlines()
    if code != 0 or len(lines) != TABLE_POINTS + 2:
        return [(False, None)]
    lo, hi, count = op["grid"]
    step = (hi - lo) / (count - 1)
    outcomes = []
    worst = 0.0
    rows = [[complex(v.replace("i", "j")) for v in line.split(",")] for line in lines[2:]]
    for i, row in enumerate(rows):
        z = lo + i * step
        refs, scales = O.poly_table(op["p"], z, TABLE_N_HI)
        for n, (v, ref, scale) in enumerate(zip(row[1:], refs, scales)):
            if not _finite(v):
                return [(False, None)]
            worst = max(worst, abs(v - ref) / max(abs(ref), scale))
    outcomes += _graded(worst, O.POLY_TOL)
    # a seeded sample of cells against 40 digits
    for i, n in op["sample"]:
        ref = O.mp_poly(op["p"], lo + i * step, {n})[n]
        outcomes += _graded(O.mp_rel_error(rows[i][n + 1], 0.0, ref), O.POLY_TOL)
    return outcomes


def _check_forward(op, cells):
    """Every returned cell against a renormalized double recurrence; a
    seeded subset of operations also against 40 digits."""
    indices = _forward_cells(op)
    z = complex(*op["z"])
    if not all(_finite(m) for m, _ in cells):
        return [(False, None)]
    refs = O.forward_scaled(op["p"], z, set(indices))
    worst = max(O.scaled_rel_error(cell, refs[n]) for n, cell in zip(indices, cells))
    outcomes = _graded(worst, O.POLY_TOL)
    if op["mp"]:
        refs = O.mp_poly(op["p"], z, set(indices))
        worst = max(O.mp_rel_error(m, s, refs[n]) for n, (m, s) in zip(indices, cells))
        outcomes += _graded(worst, O.POLY_TOL)
    return outcomes


def _zeros_ok(op, lists, interlaced) -> bool:
    """The acceptance zero law: eight real negative simple zeros with a
    sign change across each bracket, interlacing the next order."""
    q = op["q"]
    for n, zl in zip((op["n"], op["n"] + 1), lists):
        if len(zl.zeros) != 8 or not all(z < 0 for z in zl.zeros):
            return False
        for lo, hi in zl.brackets:
            if lo != hi and O.fourth_limit_series(q, n, lo) * O.fourth_limit_series(q, n, hi) >= 0:
                return False
    return bool(interlaced)


# ---------------------------------------------------------------------------
# The timed loop.
# ---------------------------------------------------------------------------


@dataclass
class OpResult:
    kind: str
    defect: bool
    seconds: float
    outcomes: list
    error: str = ""
    reports: bool = False

    @property
    def attempted(self) -> int:
        return len(self.outcomes) if self.reports else 1

    @property
    def failed(self) -> int:
        bad = sum(1 for ok, _ in self.outcomes if not ok)
        return bad if self.reports else min(bad, 1)


def nearest_rank(values, fraction):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


class RunSummary:
    """Running totals of a workload run.  Results are folded in batch by
    batch and not kept, so the benchmark's own memory stays flat."""

    def __init__(self):
        self.attempted = self.failures = self.unexpected_failures = 0
        self.errors: set = set()
        self.margins = array("d")
        # known-defect probes excluded, scaled to reference speed (see
        # calibration.py): operation latencies, and per batch the latency
        # p99 and the busy seconds
        self.latencies = array("d")
        self.batch_p99: list = []
        self.batch_seconds: list = []
        self.speed_factors: list = []

    def add(self, results, busy=None, factor=1.0):
        latencies = []
        for r in results:
            self.attempted += r.attempted
            self.failures += r.failed
            if r.error:
                self.errors.add(f"{r.kind}:{r.error}")
            if not r.defect:
                self.unexpected_failures += r.failed
                latencies.append(r.seconds)
                self.margins.extend(m for _ok, m in r.outcomes if m is not None)
        if busy is not None and latencies:
            self.speed_factors.append(factor)
            self.batch_seconds.append(factor * busy)
            self.latencies.extend(factor * s for s in latencies)
            self.batch_p99.append(factor * nearest_rank(latencies, 0.99))

    def p99(self) -> float:
        """Median over batches of each batch's nearest-rank p99 latency.
        A batch with a heavy tail moves it less than it moves a p99 pooled
        over the run: over ten runs of ~50 verify operations the pooled p99
        spread 0.20 and the per-batch one 0.05 to 0.12; over five pointwise
        runs 0.09 and 0.01.  For the p50 pooling was the steadier (sweep:
        0.05 against 0.11)."""
        return statistics.median(self.batch_p99)

    def margin_digits(self, fraction=0.01) -> float:
        """Nearest-rank low percentile of the accuracy margins of checked
        outputs (the minimum when there are fewer than 100)."""
        return nearest_rank(self.margins, fraction) if self.margins else float("nan")


def run_ops(lib: Library, ops, tracer=None) -> tuple[list, float, float]:
    """Execute a batch; returns ([(op, output or exception, seconds)],
    seconds spent in operations that are not known-defect probes, and the
    batch's speed factor).  The speed loop runs between operations, after
    every ``calibration.EVERY_S`` of them; a batch with fewer than
    ``calibration.MIN_SAMPLES`` samples gets factor 1.  With a
    tracer, spans are recorded during this batch only, so the checks that
    follow are not traced."""
    timed = []
    busy = 0.0
    samples = []
    since = 0.0
    if tracer is not None:
        tracer.install()
    try:
        for op in ops:
            if tracer is not None:
                tracer.op_id += 1
            t0 = time.perf_counter()
            try:
                out = execute(lib, op)
            except Exception as exc:  # a failed operation is a measured outcome
                # drop the traceback: it would tie this frame, and with it
                # the batch's outputs, into a cycle only the collector frees
                out = exc.with_traceback(None)
            dt = time.perf_counter() - t0
            timed.append((op, out, dt))
            if not op.get("defect"):
                busy += dt
            since += dt
            if since >= calibration.EVERY_S:  # the loop calls nothing traced
                samples.append(calibration.loop_seconds())
                since = 0.0
    finally:
        if tracer is not None:
            tracer.uninstall()
    if len(samples) < calibration.MIN_SAMPLES:
        # a batch of a few long operations: samples taken only around
        # them track the machine poorly (ten runs of a 20 s operation:
        # scaled times spread 0.34, raw ones about 0.2)
        return timed, busy, 1.0
    return timed, busy, calibration.factor(samples)


def check_ops(lib: Library, timed) -> list:
    results = []
    for op, out, dt in timed:
        error = ""
        if isinstance(out, Exception):
            outcomes, error = [(False, None)], type(out).__name__
        else:
            try:
                outcomes = check(lib, op, out)
            except Exception as exc:  # the oracle could not confirm the output
                outcomes, error = [(False, None)], "check:" + type(exc).__name__
        results.append(OpResult(op["kind"], bool(op.get("defect")), dt, outcomes, error,
                                bool(op.get("reports"))))
    return results


def run_workload(lib: Library, workload: str, seed: int, seconds: float, tracer=None) -> RunSummary:
    """Run fresh batches until ``seconds`` of operation time is spent
    (at least one batch); outputs are checked between batches."""
    summary = RunSummary()
    spent = 0.0
    index = 0
    while index == 0 or spent < seconds:
        timed, busy, factor = run_ops(lib, batch(workload, seed, index), tracer)
        spent += sum(dt for _, _, dt in timed)
        summary.add(check_ops(lib, timed), busy, factor)
        index += 1
    return summary
