"""The grid series path against its former per-slot, full-pass form.

The grid kernels sum one array pass per series term.  The passes now
check only the exits that can take a point, shrink the live arrays only
when a point leaves, sum every slot of one candidate rank in one pass,
and evaluate the bracket of a weight once where its two factors are
conjugate.  The former forms are kept here, as they were, and the new
ones must give the same bits, failures and choices.
"""

import math
import sys

import numpy as np
import pytest

from qdhahn import cdqhahn, family, limits, qseries, verify
from qdhahn.errors import (DivergentSeries, MaxTermsExceeded, Overflow, QdhError,
                           ZeroDivisor)

THIS = sys.modules[__name__]

ORTHO_CASES = {
    "reduced": (0.5, 0.4, 0.4, 0.5, 0.4),
    "associated": (0.5, 0.4, 0.4, 0.7, 0.4),
}


# -- the former forms ------------------------------------------------------


def former_qpoch_inf_grid(a, q):
    # the masked loop, under the current cutoff and third-order tail
    factor = np.array(a, dtype=complex)
    product = np.ones(factor.shape, dtype=complex)
    cutoff = qseries._qpoch_cutoff(q)
    live = np.abs(factor) >= cutoff
    while live.any():
        product = np.where(live, product * (1.0 - factor), product)
        factor = np.where(live, factor * q, factor)
        live = np.abs(factor) >= cutoff
    return product * np.exp(qseries._qpoch_log_tail(factor, q))


def former_phi_core_grid(spec, policy):
    q = spec.q
    size = spec.argument.size
    extra = 1 + spec.s - spec.r
    errors = np.full(size, None, dtype=object)
    stop = qseries.series_termination(spec, policy.max_terms)
    terminating = stop >= 0
    for b in spec.denominator:
        m = qseries._termination_orders(b, q, policy.max_terms)
        for i in np.flatnonzero(terminating & (m >= 0) & (m < stop)):
            errors[i] = ZeroDivisor(
                "denominator parameter equals q^-%d before the series terminates" % m[i]
            )
    if spec.r > spec.s + 1:
        errors[~terminating] = DivergentSeries(
            "nonterminating series with r > s+1 diverges for every argument"
        )
    elif spec.r == spec.s + 1:
        errors[~terminating & (np.abs(spec.argument) >= 1.0)] = DivergentSeries(
            "argument modulus >= 1 with r = s+1; use a continuation"
        )
    out_total = np.zeros(size, dtype=complex)
    out_weighted = np.zeros(size)
    out_tail = np.zeros(size)

    idx = np.flatnonzero(np.equal(errors, None))
    count = idx.size
    state = [
        [a[idx] for a in spec.numerator],
        [b[idx] for b in spec.denominator],
        spec.argument[idx],
        stop[idx],
        np.ones(count, dtype=complex),  # term
        np.ones(count, dtype=complex),  # total
        np.ones(count),  # largest
        np.ones(count),  # weighted
        np.zeros(count, dtype=int),  # small_run
    ]
    qk = 1.0
    k = 0
    while idx.size:
        nums, dens, z, st, term, total, largest, weighted, small_run = state
        finished = st == k
        out_total[idx[finished]] = total[finished]
        out_weighted[idx[finished]] = weighted[finished]
        if finished.all():
            break
        num = np.ones(idx.size, dtype=complex)
        for a in nums:
            num *= 1.0 - a * qk
        den = 1.0 - q * qk
        for b in dens:
            den = den * (1.0 - b * qk)
        factor = num / den * z
        if extra:
            base = -qk
            if base == 0.0 and extra < 0:
                errors[idx[~finished]] = Overflow("q^k underflow with negative exponent weight")
                break
            factor *= base**extra
        term *= factor
        total += term
        size_term = np.abs(term)
        largest = np.fmax(largest, size_term)
        weighted += (k + 2.0) * size_term
        ratio_mag = np.abs(factor)
        k += 1
        qk *= q
        vanished = ~finished & (den == 0)
        for i in idx[vanished]:
            errors[i] = ZeroDivisor("series denominator vanished at term %d" % k)
        open_ended = ~finished & ~vanished & (st < 0)
        tail_factor = np.minimum(np.maximum(
            np.where(ratio_mag < 0.999, ratio_mag / (1.0 - ratio_mag), 1e3), 1.0), 1e3)
        small = size_term * tail_factor < policy.rel_tol * np.maximum(
            np.abs(total), 1e-3 * largest
        )
        small_run = np.where(small, small_run + 1, 0)
        settled = open_ended & (small_run >= 3)
        out_total[idx[settled]] = total[settled]
        out_weighted[idx[settled]] = weighted[settled]
        out_tail[idx[settled]] = size_term[settled] * tail_factor[settled]
        over = open_ended & ~settled & (
            (k >= policy.max_terms) | ((k > 800) & (ratio_mag > 0.995))
        )
        if over.any():
            errors[idx[over]] = MaxTermsExceeded(
                "series did not settle within %d terms" % min(k, policy.max_terms)
            )
        over_budget = ~finished & ~vanished & (st >= 0) & (k > policy.max_terms)
        if over_budget.any():
            errors[idx[over_budget]] = MaxTermsExceeded("terminating series exceeds the term budget")
        keep = ~(finished | vanished | settled | over | over_budget)
        state = [nums, dens, z, st, term, total, largest, weighted, small_run]
        if not keep.all():
            idx = idx[keep]
            state = [
                [v[keep] for v in item] if isinstance(item, list) else item[keep]
                for item in state
            ]
    summed = np.equal(errors, None)
    errors[summed & ~np.isfinite(out_total)] = Overflow(
        "series sum left the double-precision range"
    )
    return out_total, out_weighted, out_tail, errors


def former_rank_grid(candidates, size, q, policy, keys=None):
    count = len(candidates)
    usable = np.array([np.broadcast_to(u, (size,)) for u, _ in candidates])
    if keys is None:
        order = np.broadcast_to(np.arange(count)[:, None], (count, size))
    else:
        order = np.argsort(np.where(usable, np.array(keys), np.inf), axis=0, kind="stable")
        usable = np.take_along_axis(usable, order, axis=0)
    values = np.full(size, np.nan, dtype=complex)
    resolved = np.zeros(size, dtype=bool)
    have_best = np.zeros(size, dtype=bool)
    best_rel = np.full(size, np.inf)
    last_error = np.full(size, None, dtype=object)
    for rank in range(count):
        waiting = usable[rank] & ~resolved
        for slot in sorted(set(order[rank][waiting].tolist())):
            pts = np.flatnonzero(waiting & (order[rank] == slot))
            rep = candidates[slot][1]()
            # looked up here at call time, so that a test can record it
            value, rel, errors = THIS.former_grid_candidate(rep, pts, q, policy,
                                                            keys is not None)
            ok = np.equal(errors, None)
            last_error[pts[~ok]] = errors[~ok]
            win = ok & (rel <= qseries._TARGET_REL_ERROR)
            values[pts[win]] = value[win]
            resolved[pts[win]] = True
            better = ok & ~win & (~have_best[pts] | (rel < best_rel[pts]))
            values[pts[better]] = value[better]
            best_rel[pts[better]] = rel[better]
            have_best[pts[better]] = True
    return values, np.flatnonzero(~resolved & ~have_best), last_error


def former_grid_candidate(rep, pts, q, policy, series_relative):
    pref, spec = rep
    if pref is None:
        errors = np.full(pts.size, None, dtype=object)
    else:  # the prefactor's failures, by the library's (scalar) rule
        factor, errors = qseries._grid_prefactor(pref, pts, q)
    series, weighted, tail, series_errors = qseries._phi_core(spec.take(pts), policy)
    errors = np.where(np.equal(errors, None), series_errors, errors)
    err = qseries._series_error(weighted, tail)
    value = series if pref is None else factor * series
    if series_relative:
        errors[np.equal(errors, None) & ~np.isfinite(value)] = Overflow(
            "continued balanced series left the double-precision range"
        )
        return value, err / np.maximum(np.abs(series), 1e-300), errors
    if pref is not None:
        err = err * np.abs(factor)
    if (np.equal(errors, None) & ~np.isfinite(value)).any():
        raise Overflow("series evaluation left the double-precision range")
    return value, err / np.maximum(np.abs(value), 1e-300), errors


def former_cut_bracket(family_, point, f):
    return f(point.lam_minus) * f(point.lam_plus)


# -- helpers ---------------------------------------------------------------


def failures(errors):
    return [None if e is None else (type(e).__name__, str(e)) for e in errors]


def same_bits(a, b):
    return np.array_equal(a, b, equal_nan=True)


def cosine_nodes(count):
    return np.cos((np.arange(count) + 0.5) * math.pi / count)


def outcome(fn):
    """fn()'s value, or its named error as (class, message)."""
    try:
        return fn()
    except QdhError as exc:
        return type(exc).__name__, str(exc)


def same_outcome(a, b):
    if isinstance(a, tuple) or isinstance(b, tuple):
        return a == b
    return same_bits(a, b)


def complex_points(rng, size, lo, hi, phase):
    return rng.uniform(lo, hi, size) * np.exp(1j * rng.uniform(-phase, phase, size))


# -- the lean per-term pass ------------------------------------------------

Q = 0.5


def _mixed_two_phi_one(seed, size=80):
    """A 2-phi-1 grid whose points leave by every exit of the pass."""
    rng = np.random.default_rng(seed)
    a = complex_points(rng, size, 0.1, 1.5, 1.0)
    b = complex_points(rng, size, 0.1, 1.5, 1.0)
    c = complex_points(rng, size, 0.1, 0.9, 1.0)
    z = complex_points(rng, size, 0.05, 1.2, math.pi)  # |z| >= 1 diverges
    a[::7] = Q ** -(np.arange(a[::7].size) % 6.0)  # terminating, m = 0 included
    c[3::14] = Q ** -1.0  # a denominator q^-1 before a q^-m ending: ZeroDivisor
    a[3::14] = Q ** -4.0
    c[5::11] = Q ** -2.0  # vanishes at the third term of an open series
    z[5::11] = 0.3
    z[6::9] = 0.9985 * np.exp(0.2j)  # settles after 800 terms or not at all
    return qseries.SeriesSpec((a, b), (c,), Q, z)


def _grid_specs():
    """(spec, policy) cases reaching every exit of the pass, with series
    of r - s from -1 to 2 among them."""
    rng = np.random.default_rng(11)
    size = 50
    cases = []
    for seed in (0, 1):
        spec = _mixed_two_phi_one(seed)
        cases += [(spec, qseries.DEFAULT_POLICY),
                  (spec, qseries.TruncationPolicy(rel_tol=1e-12, max_terms=60))]
    w = complex_points(rng, size, 0.1, 3.0, math.pi)
    p = complex_points(rng, size, 0.1, 1.5, 1.0)
    p[::5] = Q ** -3.0
    cases += [
        (qseries.SeriesSpec((), (p,), Q, w), qseries.DEFAULT_POLICY),  # 0-phi-1
        (qseries.SeriesSpec((p,), (), Q, w * 0.3), qseries.DEFAULT_POLICY),  # 1-phi-0
        (qseries.SeriesSpec((p, 0.4), (0.3, p * 0.5), Q, w), qseries.DEFAULT_POLICY),
        # a balanced 3-phi-2 inside and outside the unit disk
        (qseries._balanced_spec(p, 0.6, 0.7 + 0.1j, 0.8, 0.5, Q), qseries.DEFAULT_POLICY),
        # a point alone, and points summed alone after a neighbour ends
        # (numpy rounds an in-place product of one element apart)
        (qseries.SeriesSpec((np.array([0.3 + 0.2j]), 0.7), (0.4,), Q, 0.6 - 0.1j),
         qseries.DEFAULT_POLICY),
        *((qseries.SeriesSpec((np.array([Q ** -m, p[m]]), p[m + 10]), (p[m + 20] * 0.5,), Q,
                              w[m] * 0.3), qseries.DEFAULT_POLICY) for m in range(1, 9)),
        # 3-phi-1 and 2-phi-0: only the terminating points are summed
        (qseries.SeriesSpec((p, 0.5, 0.7), (0.2,), Q, w), qseries.DEFAULT_POLICY),
        (qseries.SeriesSpec((p, 0.5), (), Q, w * 1e300), qseries.DEFAULT_POLICY),
    ]
    return cases


# a termination order past every real one, for the exit that only such
# an order reaches: no finite q^-m ends a series late enough for q^k to
# underflow
FAR_STOP = 2000


def _far_termination(real):
    def series_termination(spec, max_order=5000):
        stop = real(spec, max_order)
        return np.where(stop < 0, FAR_STOP, stop)
    return series_termination


def _far_specs():
    rng = np.random.default_rng(12)
    w = complex_points(rng, 30, 0.1, 0.9, math.pi)
    return [
        # q^k = 1e-200 * 1e-200 underflows to 0 at the third term of a
        # 2-phi-0: Overflow
        (qseries.SeriesSpec((0.3, 0.2), (), 1e-200, w), qseries.DEFAULT_POLICY),
    ]


def _assert_same_sums(spec, policy, seen):
    with np.errstate(all="ignore"):
        old = former_phi_core_grid(spec, policy)
        new = qseries._phi_core_grid(spec, policy)
    for former, now in zip(old[:3], new[:3]):
        assert same_bits(former, now)
    assert failures(old[3]) == failures(new[3])
    seen.update(msg.split(" at term ")[0].split(" within ")[0].split(" equals ")[0]
                for _, msg in filter(None, failures(new[3])))
    summed = np.equal(new[3], None)
    if summed.any():
        seen.add("summed")
    if (summed & (new[2] > 0)).any():  # only a settled sum has a tail
        seen.add("settled")


def test_lean_pass_sums_the_former_bits_at_every_exit(monkeypatch):
    seen = set()
    for spec, policy in _grid_specs():
        _assert_same_sums(spec, policy, seen)
    monkeypatch.setattr(qseries, "series_termination",
                        _far_termination(qseries.series_termination))
    for spec, policy in _far_specs():
        _assert_same_sums(spec, policy, seen)
    assert seen >= {
        "summed", "settled",
        "denominator parameter",
        "series denominator vanished",
        "series did not settle",  # the budget and the slow ratio past 800 terms
        "q^k underflow with negative exponent weight",
        "series sum left the double-precision range",
        "nonterminating series with r > s+1 diverges for every argument",
        "argument modulus >= 1 with r = s+1; use a continuation",
    }, seen


def test_both_term_budgets_are_reached():
    # the budget (k >= max_terms) and the slow ratio (k > 800, ratio > 0.995)
    spec = _mixed_two_phi_one(0)
    for policy, count in ((qseries.TruncationPolicy(max_terms=60), "60"),
                          (qseries.DEFAULT_POLICY, "801")):
        _, _, _, errors = qseries._phi_core(spec, policy)
        assert f"series did not settle within {count} terms" in {
            str(e) for e in errors if e is not None}


@pytest.mark.parametrize("q", [0.1, 0.5, 0.93])
def test_infinite_qpoch_grid_is_the_former_bits(q):
    rng = np.random.default_rng(int(q * 100))
    moduli = np.array([0.0, 1e-300, 1e-18, 1e-15, 1e-6, 0.3, 0.999, 1.0, 2.5, 40.0])
    a = np.concatenate([moduli * np.exp(1j * rng.uniform(-math.pi, math.pi, moduli.size)),
                        moduli, complex_points(rng, 200, 0.0, 5.0, math.pi)])
    rng.shuffle(a)
    with np.errstate(all="ignore"):
        assert same_bits(qseries._qpoch_inf_grid(a, q), former_qpoch_inf_grid(a, q))
        assert same_bits(qseries._qpoch_inf_grid(a[:1], q), former_qpoch_inf_grid(a[:1], q))
        assert same_bits(qseries._qpoch_inf_grid(a[:0], q), former_qpoch_inf_grid(a[:0], q))


# -- one array pass per candidate rank -------------------------------------


def scattered_phi32_grid(seed, size=40, q=0.5):
    """Balanced series at scattered complex parameters: moduli 0.1-1.6,
    every other point turned by phases up to +-0.8."""
    rng = np.random.default_rng(seed)
    params = []
    for _ in range(5):
        v = rng.uniform(0.1, 1.6, size).astype(complex)
        v[::2] *= np.exp(1j * rng.uniform(-0.8, 0.8, v[::2].size))
        params.append(v)
    return (*params, q)


def _recorded(calls, fn):
    def record(*args):
        result = fn(*args)
        _, rel, errors = result
        calls.append((args[1].copy(), rel.copy(), failures(errors)))  # args[1] is pts
        return result
    return record


def _picks(visits):
    """Per point, the visit whose value _rank_grid keeps and that
    visit's relative error estimate."""
    chosen = {}
    for n, (pts, rel, errors) in enumerate(visits):
        for p, r, e in zip(pts.tolist(), rel.tolist(), errors):
            if e is None and (p not in chosen or r <= qseries._TARGET_REL_ERROR
                              or r < chosen[p][1]):
                chosen[p] = (n, r)
    return chosen


def _rank_both(monkeypatch, args):
    """_rank_grid and its former form over phi32's candidates at the
    non-terminating points of the grid ``args``, with every candidate
    visit recorded."""
    spec = qseries._balanced_spec(*args)
    spec = spec.take(np.flatnonzero(qseries.series_termination(spec) < 0))
    size = spec.argument.size
    with np.errstate(all="ignore"):
        candidates = qseries._phi32_candidates(spec)
    pairs = [(usable, build) for usable, _, _, build in candidates]
    keys = [abs(arg) for _, arg, _, _ in candidates]
    results = []
    for rank, module, name in ((qseries._rank_grid, qseries, "_grid_candidate"),
                               (former_rank_grid, THIS, "former_grid_candidate")):
        visits = []
        with monkeypatch.context() as m, np.errstate(all="ignore"):
            m.setattr(module, name, _recorded(visits, getattr(module, name)))
            values, missing, last = rank(pairs, size, spec.q, qseries.DEFAULT_POLICY, keys)
        results.append((values, missing, failures(last), visits))
    return results


@pytest.mark.parametrize("seed", range(6))
def test_merged_rank_pass_picks_what_the_per_slot_pass_picks(seed, monkeypatch):
    (values, missing, last, visits), (f_values, f_missing, f_last, f_visits) = \
        _rank_both(monkeypatch, scattered_phi32_grid(seed))
    assert missing.tolist() == f_missing.tolist() and last == f_last
    # the same points reach the same candidates in the same order and
    # fail the same way there
    assert len(visits) == len(f_visits)
    for (pts, rel, errors), (f_pts, f_rel, f_errors) in zip(visits, f_visits):
        assert pts.tolist() == f_pts.tolist() and errors == f_errors
        np.testing.assert_allclose(rel, f_rel, rtol=1e-6)
    picks, f_picks = _picks(visits), _picks(f_visits)
    assert {p: n for p, (n, _) in picks.items()} == {p: n for p, (n, _) in f_picks.items()}
    # each value within its own error estimate of the former value
    for p, (_, rel) in f_picks.items():
        assert abs(values[p] - f_values[p]) <= rel * abs(f_values[p]), p


def _counted(m):
    """Count grid _phi_core calls and the candidate ranks that sum."""
    cores, ranks = [], []
    real_core, real_sums = qseries._phi_core, qseries._grid_sums
    m.setattr(qseries, "_phi_core",
              lambda spec, policy: cores.append(spec.grid) or real_core(spec, policy))
    m.setattr(qseries, "_grid_sums",
              lambda specs, policy: ranks.append(len(specs)) or real_sums(specs, policy))
    return cores, ranks


def test_merged_rank_pass_sums_one_array_per_rank(monkeypatch):
    grid = scattered_phi32_grid(0)
    counts = []
    for rank_grid in (former_rank_grid, qseries._rank_grid):
        with monkeypatch.context() as m:
            cores, ranks = _counted(m)
            m.setattr(qseries, "_rank_grid", rank_grid)
            outcome(lambda: qseries.phi32(*grid))
        counts.append(cores.count(True))
    reached = sum(1 for n in ranks if n)
    assert reached >= 2 and counts[1] == reached < counts[0]


def test_weight_sums_one_phi32_grid_and_one_array_per_rank(monkeypatch):
    params = cdqhahn.CDQHParams(*ORTHO_CASES["associated"])
    phi32_calls = []
    real_phi32 = cdqhahn.phi32
    monkeypatch.setattr(cdqhahn, "phi32", lambda *args: phi32_calls.append(1) or real_phi32(*args))
    cores, ranks = _counted(monkeypatch)
    cdqhahn.weight(params, verify.gauss_nodes(600)[0])
    reached = sum(1 for n in ranks if n)
    assert len(phi32_calls) == 1
    assert reached >= 1 and cores == [True] * reached


@pytest.mark.parametrize("case", sorted(ORTHO_CASES))
def test_weights_and_pole_scan_are_the_per_slot_bits(case, monkeypatch):
    params = cdqhahn.CDQHParams(*ORTHO_CASES[case])

    def evaluate():
        out = [cdqhahn.weight(params, x)
               for count in (600, 800, 1200, 1600, 2000, 4000)
               for x in (verify.gauss_nodes(count)[0], cosine_nodes(count))]
        for side in (1.0, -1.0):  # transform_pole_free's scan
            grid = np.geomspace(1.0 + 1e-4, 30.0, 1200) * side
            out.append(params._ratio_denominator(cdqhahn.spectral_point(params, x=grid).lam_minus))
        return out, verify.transform_pole_free(params)

    values, pole_free = evaluate()
    monkeypatch.setattr(qseries, "_rank_grid", former_rank_grid)
    f_values, f_pole_free = evaluate()
    assert pole_free == f_pole_free
    assert all(same_bits(a, b) for a, b in zip(values, f_values))


# -- one bracket series per weight -----------------------------------------


def _spy_brackets(m):
    """Record (family, point, f, calls of f) at each cut_bracket call."""
    seen = []
    real = family.cut_bracket

    def spy(fam, point, f):
        calls = []
        seen.append((fam, point, f, calls))
        return real(fam, point, lambda lam: calls.append(1) or f(lam))

    m.setattr(family, "cut_bracket", spy)
    m.setattr(limits, "cut_bracket", spy)
    return seen


def _former_weight(monkeypatch, fam, x):
    """The weight with the bracket's two factors both evaluated."""
    with monkeypatch.context() as m:
        m.setattr(family, "cut_bracket", former_cut_bracket)
        m.setattr(limits, "cut_bracket", former_cut_bracket)
        return outcome(lambda: family.weight(fam, x))


def _spied_weight(monkeypatch, fam, x):
    """The weight, with its one cut_bracket call's (point, f, calls of f)."""
    with monkeypatch.context() as m:
        seen = _spy_brackets(m)
        value = outcome(lambda: family.weight(fam, x))
    ((_, point, f, calls),) = seen
    return value, point, f, calls


REAL_CUT_FAMILIES = [
    cdqhahn.CDQHParams(*ORTHO_CASES["reduced"]),
    cdqhahn.CDQHParams(*ORTHO_CASES["associated"]),
    limits.AlSalamChihara(0.5, 0.35, 0.45, 0.7),
    limits.ContBigQHermite(0.5, 0.5, 1.6),
]


def _drawn_families(count=6):
    rng = np.random.default_rng(2024)
    return [verify.draw_limit_family(rng, fid)[0]
            for fid in ("al-salam-chihara", "cont-big-q-hermite") for _ in range(count)]


@pytest.mark.parametrize("fam", REAL_CUT_FAMILIES + _drawn_families(),
                         ids=lambda f: f"{f.family_id}-alpha={f.alpha:.4g}")
def test_bracket_is_one_series_where_its_factors_are_conjugate(fam, monkeypatch):
    real_alpha = fam.alpha.imag == 0
    for x in (verify.gauss_nodes(600)[0], cosine_nodes(600), cosine_nodes(600)[::97]):
        value, point, f, calls = _spied_weight(monkeypatch, fam, x)
        if real_alpha:
            # on the cut with real parameters the direct f(lam_+) is the
            # conjugate of f(lam_-), bit for bit
            with np.errstate(all="ignore"):
                assert same_bits(f(point.lam_plus), f(point.lam_minus).conjugate())
            assert len(calls) == 1
        else:
            # an imaginary alpha (a < 0 or delta < 0) puts lam_+ at
            # -conj(lam_-): f is evaluated at both roots
            assert not np.array_equal(point.lam_plus, point.lam_minus.conjugate())
            assert len(calls) == 2
        assert same_outcome(value, _former_weight(monkeypatch, fam, x))


def test_drawn_families_reach_both_branches():
    assert {fam.alpha.imag == 0 for fam in _drawn_families()} == {True, False}


@pytest.mark.parametrize("fam", [limits.AlSalamChihara(0.5, 0.35 + 0.02j, 0.45, 0.7),
                                 limits.ContBigQHermite(0.5, 0.5, 1.6 - 0.01j)],
                         ids=lambda f: f.family_id)
def test_bracket_of_a_complex_parameter_takes_both_roots(fam, monkeypatch):
    x = cosine_nodes(200)
    value, _, _, calls = _spied_weight(monkeypatch, fam, x)
    assert len(calls) == 2
    assert same_outcome(value, _former_weight(monkeypatch, fam, x))


@pytest.mark.parametrize("fam", REAL_CUT_FAMILIES, ids=lambda f: f.family_id)
def test_scalar_bracket_is_one_series(fam, monkeypatch):
    for x in cosine_nodes(9):
        value, _, _, calls = _spied_weight(monkeypatch, fam, float(x))
        assert len(calls) == 1 and type(value) is float
        assert _former_weight(monkeypatch, fam, float(x)) == value
