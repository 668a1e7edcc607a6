"""Acceptance suite: one test per exit criterion, each printing a
single pass/fail line.

Tolerances are pinned here and never loosened at run time.  Random
draws are seeded and respect the documented numerical-comfort domain
(series arguments bounded away from the unit circle and the q-power
lattice), matching the library's draw helpers.
"""

import itertools
import math
import random

import pytest

from qdhahn import cdqhahn, limits, qseries, recurrence, verify
from qdhahn.errors import DivergentSeries, PoleHit
from qdhahn.family import solution_sequence

import paper_identities

SEED = 20240801


def report(criterion: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status}{suffix}")
    assert passed, f"{criterion}{suffix}"


@pytest.mark.acceptance
class TestAcceptance:
    def test_01_solution_residuals(self):
        """Closed-form solutions satisfy their recurrences, n = 1..25,
        over 20 seeded draws per family, residual < 1e-9 relative."""
        tol = 1e-9
        rng = random.Random(SEED)
        worst = 0.0
        for _ in range(20):
            params, point = verify.draw_cdqh(rng)
            for which in cdqhahn.CDQHParams._solutions:
                seq = solution_sequence(params, point, which, 0, 26)
                for n in range(1, 26):
                    worst = max(
                        worst, recurrence.relative_residual(params, point.z, seq, n)
                    )
        for family_id in limits.FAMILIES:
            for _ in range(20):
                fam, z = verify.draw_limit_family(rng, family_id)
                for which in fam._solutions:
                    try:
                        seq = solution_sequence(fam, z, which, 0, 26)
                    except (limits.FormalOnly, DivergentSeries):
                        continue
                    for n in range(1, 26):
                        worst = max(
                            worst, recurrence.relative_residual(fam, z, seq, n)
                        )
        report("1 solution-residuals", worst < tol, f"max {worst:.2e}")

    def test_02_transform_consistency(self):
        """The reciprocal continued fraction from the minimal solution
        agrees with the depth-400 truncation at 10 off-cut points; both
        prefactor forms and both reduced forms coincide."""
        params = cdqhahn.CDQHParams(0.5, 0.3, 0.4, 0.35, 0.45)
        rng = random.Random(SEED)
        worst = 0.0
        for _ in range(10):
            x = rng.uniform(1.2, 3.0) * rng.choice([1.0, -1.0])
            point = cdqhahn.spectral_point(params, x=x)
            closed = cdqhahn.cf_stieltjes(params, point, "ratio")
            pinch = cdqhahn.cf_stieltjes(params, point, "pincherle")
            trunc = 1.0 / recurrence.cf_truncated(params, point.z, 400)
            alt = cdqhahn.cf_stieltjes(params, point, "ratio-alt")
            worst = max(
                worst,
                abs(closed - trunc) / abs(closed),
                abs(pinch - trunc) / abs(pinch),
                abs(alt - closed) / abs(closed),
            )
        reduced = cdqhahn.CDQHParams(0.5, 0.3, 0.4, 0.5, 0.45)
        for x in (1.5, 2.2, -1.8):
            point = cdqhahn.spectral_point(reduced, x=x)
            single = cdqhahn.cf_stieltjes(reduced, point, "reduced")
            product = cdqhahn.cf_stieltjes(reduced, point, "reduced-product")
            trunc = 1.0 / recurrence.cf_truncated(reduced, point.z, 400)
            worst = max(
                worst,
                abs(single - product) / abs(single),
                abs(single - trunc) / abs(single),
            )
        report("2 stieltjes-consistency", worst < 1e-8, f"max {worst:.2e}")

    def test_03_explicit_polynomials(self):
        """Both double-sum formulas reproduce the forward recurrence for
        n <= 10 at 1e-9, with full parameter-exchange and u <-> 1/u
        invariance for n <= 8."""
        rng = random.Random(SEED)
        worst = 0.0
        for _ in range(20):
            params, point = verify.draw_cdqh_polyform(rng)
            seq = recurrence.forward_eval(params, point.z, 0.0, 1.0, 10)
            for n in range(0, 11):
                target = seq.value(n)
                worst = max(
                    worst,
                    abs(cdqhahn.explicit_poly(params, point, n) - target)
                    / abs(target),
                    abs(cdqhahn.explicit_poly_ir(params, point, n) - target)
                    / abs(target),
                )
        sym_worst = 0.0
        params, point = verify.draw_cdqh_polyform(random.Random(SEED + 1))
        x = point.x.real
        for n in (4, 8):
            base = cdqhahn.explicit_poly(params, point, n)
            for perm in itertools.permutations("ABCD"):
                permuted = params.permuted("".join(perm))
                value = cdqhahn.explicit_poly(
                    permuted, cdqhahn.spectral_point(permuted, x=x), n
                )
                sym_worst = max(sym_worst, abs(value - base) / abs(base))
            flipped = cdqhahn.SpectralPoint(
                point.z, point.alpha, point.x, 1 / point.u,
                point.lam_minus, point.lam_plus, point.side,
            )
            for fn in (cdqhahn.explicit_poly, cdqhahn.explicit_poly_ir):
                sym_worst = max(
                    sym_worst,
                    abs(fn(params, flipped, n) - fn(params, point, n)) / abs(base),
                )
        passed = worst < 1e-9 and sym_worst < 1e-9
        report("3 explicit-polynomials", passed,
               f"recurrence {worst:.2e}, symmetry {sym_worst:.2e}")

    def test_04_generating_function(self):
        """Assembled Taylor coefficients equal the rescaled polynomials
        for n <= 8 at 1e-9; the product form matches when the paired
        denominator parameter is q."""
        rng = random.Random(SEED)
        worst = 0.0
        for _ in range(10):
            params, point = verify.draw_cdqh(rng)
            coeffs = cdqhahn.genfun_coeffs(params, point, 8)
            seq = recurrence.forward_eval(params, point.z, 0.0, 1.0, 8)
            q = params.q
            for n in range(9):
                target = (
                    (2 * point.alpha) ** n
                    * seq.value(n)
                    / (qseries.qpoch(params.A, q, n) * qseries.qpoch(params.D, q, n))
                )
                worst = max(worst, abs(coeffs[n] - target) / max(abs(target), 1e-12))
        reduced = cdqhahn.CDQHParams(0.5, 0.3, 0.4, 0.45, 0.5)
        point = cdqhahn.spectral_point(reduced, x=2.0)
        a = cdqhahn.genfun_coeffs(reduced, point, 8)
        b = paper_identities.genfun_coeffs_reduced(reduced, point, 8)
        product_worst = max(
            abs(va - vb) / max(abs(va), 1e-12) for va, vb in zip(a, b)
        )
        passed = worst < 1e-9 and product_worst < 1e-9
        report("4 generating-function", passed,
               f"coeffs {worst:.2e}, product form {product_worst:.2e}")

    def test_05_weight_reductions(self):
        """The four-parameter weight collapses to its product form at
        C = q on 50 grid points; the confluent denominators equal one at
        the reduced parameter; the big-Hermite-like weight matches its
        reduced display."""
        params = cdqhahn.CDQHParams(0.5, 0.3, 0.4, 0.5, 0.45)
        worst = 0.0
        for k in range(1, 51):
            x = -1 + 2 * k / 51
            general = cdqhahn.weight(params, x)
            reduced = cdqhahn.weight_reduced(params, x)
            worst = max(worst, abs(general - reduced) / abs(reduced))
        fam = limits.ContQHermite(0.5, 0.5, 0.7)
        den_worst = 0.0
        for x in (-0.8, -0.3, 0.2, 0.7):
            _, denominator, bracket = fam._weight_parts(x, qseries.DEFAULT_POLICY)
            den_worst = max(den_worst, abs(denominator - 1), abs(bracket - 1))
        fam2 = limits.ContBigQHermite(0.5, 0.5, 1.6)
        big_worst = 0.0
        for x in (-0.8, -0.3, 0.2, 0.7):
            general = limits.limit_weight(fam2, x)
            reduced2 = paper_identities.cont_big_q_hermite_weight_reduced(fam2, x)
            big_worst = max(big_worst, abs(general - reduced2) / abs(reduced2))
        passed = worst < 1e-9 and den_worst < 1e-12 and big_worst < 1e-9
        report("5 weight-reductions", passed,
               f"C=q {worst:.2e}, denominators {den_worst:.2e}, big {big_worst:.2e}")

    @pytest.mark.slow
    def test_06_orthogonality(self):
        """Gram off-diagonals below 1e-6 for degrees up to 6 under both
        quadratures, for the reduced case and a pole-free associated
        draw."""
        worst = 0.0
        for case in ("reduced", "associated"):
            rep = verify.check_orthogonality(case, n_max=6, nodes=2000, seed=SEED)
            worst = max(worst, rep.max_rel_error)
        report("6 orthogonality", worst < 1e-6, f"max off-diagonal {worst:.2e}")

    def test_07_contiguous_and_three_term(self):
        """All five shift relations and the dominant/lead-c/lead-a
        linear relation hold below 1e-8 over 100 seeded draws each."""
        worst = 0.0
        for rep in verify.check_contiguous_all(sample_count=100, seed=SEED):
            worst = max(worst, rep.max_rel_error)
        rep = verify.check_three_term_transform(sample_count=100, seed=SEED)
        worst = max(worst, rep.max_rel_error)
        report("7 contiguous-relations", worst < 1e-8, f"max {worst:.2e}")

    def test_08_transformation_identities(self):
        """Registry identities agree below 1e-10 over 100 draws each;
        the terminating-series identity pair at the reduced parameter
        does likewise."""
        worst = 0.0
        for rep in verify.check_transforms(sample_count=100, seed=SEED):
            worst = max(worst, rep.max_rel_error)
        rng = random.Random(SEED)
        id_worst = 0.0
        count = 0
        while count < 100:
            q = rng.uniform(0.3, 0.7)
            d = rng.choice([1.0, -1.0]) * rng.uniform(0.25, 0.9)
            z = rng.uniform(1.4, 3.0)
            n = rng.randrange(0, 7)
            fam = limits.AlSalamCarlitz1(q, q, d)
            for label, lhs, rhs in paper_identities.asc1_identity_checks(fam, z, n):
                id_worst = max(id_worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
            count += 1
        passed = worst < 1e-10 and id_worst < 1e-10
        report("8 transformation-identities", passed,
               f"registry {worst:.2e}, terminating pair {id_worst:.2e}")

    def test_09_zero_interlacing(self):
        """First 8 zeros of the parameter-free series are real, negative
        and simple, and interlace those of the next order, for q in
        {0.3, 0.5, 0.8} and orders -1..2; the positive definite regimes
        interlace as well."""
        ok = True
        for q in (0.3, 0.5, 0.8):
            fam = limits.FourthLimit(q)
            lists = {}
            for n in (-1, 0, 1, 2, 3):
                f = limits.fourth_limit_series(fam, n)
                lo, hi = limits.fourth_limit_zero_window(q, n, 8)
                zl = limits.find_zeros(f, lo, hi, max_zeros=8, expect=8)
                ok = ok and len(zl) == 8 and all(z < 0 for z in zl.zeros)
                for z, (blo, bhi) in zip(zl.zeros, zl.brackets):
                    if blo != bhi:
                        ok = ok and f(min(blo, bhi)) * f(max(blo, bhi)) < 0
                lists[n] = zl
            for n in (-1, 0, 1, 2):
                ok = ok and limits.interlaces(lists[n], lists[n + 1])
        for fam in (
            limits.AlSalamCarlitz1(0.5, 0.4, -0.8),
            limits.LimitASC1(0.5, 0.8),
            limits.QBesselOrder(0.5, -0.8),
        ):
            num = limits.find_zeros(
                lambda x: limits.limit_cf_parts(fam, x)[0].real,
                0.02, 1.8, max_zeros=6, samples=6000,
            )
            den = limits.find_zeros(
                lambda x: limits.limit_cf_parts(fam, x)[1].real,
                0.02, 1.8, max_zeros=6, samples=6000,
            )
            ok = ok and len(num) >= 3 and len(den) >= 3
            ok = ok and limits.interlaces(den, num)
        report("9 zero-interlacing", ok)

    def test_10_partial_fractions(self):
        """Residue expansion equals the closed form at 10 points below
        1e-8 relative."""
        fam = limits.AlSalamCarlitz1(0.5, 0.5, -0.7)
        rng = random.Random(SEED)
        worst = 0.0
        count = 0
        while count < 10:
            z = complex(rng.uniform(-3.5, 3.5), rng.uniform(-1.0, 1.0))
            if abs(z) < 0.4:
                continue
            try:
                closed = limits.limit_cf(fam, z)
                expanded = paper_identities.asc1_partial_fractions(fam, z)
            except PoleHit:
                continue
            worst = max(worst, abs(closed - expanded) / abs(closed))
            count += 1
        report("10 partial-fractions", worst < 1e-8, f"max {worst:.2e}")

    def test_11_limit_dag(self):
        """Every documented limit edge shows monotone deviation decrease
        for the degree-3 polynomial across three scales."""
        rng = random.Random(SEED)
        ok = True
        detail = []
        for edge_id, edge in limits.LIMIT_EDGES.items():
            child, z = verify.draw_limit_family(rng, edge["child"], q_range=(0.4, 0.6))
            devs = limits.limit_convergence(edge_id, child, (1e2, 1e3, 1e4), 3, z)
            monotone = devs[0] > devs[1] > devs[2]
            ok = ok and monotone
            if not monotone:
                detail.append(edge_id)
        report("11 limit-dag", ok, ",".join(detail) if detail else "11 edges")

    def test_12_qbessel_connection(self):
        """Both connection ratios stay constant over n = 0..10 with
        variation below 1e-8."""
        fam = limits.QBesselOrder(0.5, -1.0)
        worst = 0.0
        for z in (2.3, 1.7):
            first, second = paper_identities.qbessel_connection(fam, z, 10)
            for ratios in (first, second):
                base = ratios[0]
                worst = max(worst, max(abs(r - base) / abs(base) for r in ratios))
        report("12 qbessel-connection", worst < 1e-8, f"variation {worst:.2e}")
