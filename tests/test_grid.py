"""Grid evaluation against the scalar path.

A grid call applies the scalar stopping and ranking rules at every
point, but numpy rounds complex products and quotients differently from
Python (fused multiply-adds, multiplication by a reciprocal), so values
are compared at a relative tolerance fixed in advance, not bit for bit.
"""

import math

import numpy as np
import pytest

from qdhahn import cdqhahn, limits, qseries, recurrence, verify
from qdhahn.errors import NoConvergentRepresentation, NonRealResult, ZeroDivisor

GRID_REL_TOL = 1e-12

# check_orthogonality's two parameter sets (q, A, B, C, D)
ORTHO_CASES = {
    "reduced": (0.5, 0.4, 0.4, 0.5, 0.4),
    "associated": (0.5, 0.4, 0.4, 0.7, 0.4),
}

# the weighted limit families of the Gram-matrix tests in test_limits.py
WEIGHT_FAMILIES = [
    limits.ContQHermite(0.5, 0.5, 0.7),
    limits.ContBigQHermite(0.5, 0.5, 1.6),
    limits.ContQHermite(0.5, 0.35, 0.7),
    limits.AlSalamChihara(0.5, 0.35, 0.45, 0.7),
]


def cosine_nodes(count):
    return np.cos((np.arange(count) + 0.5) * math.pi / count)


def edges(x, count=16):
    """The ``count`` nodes nearest each end of (-1, 1)."""
    x = np.sort(x)
    return np.concatenate([x[:count], x[-count:]])


def orthogonality_nodes():
    """Every node of both quadrature rules at 600 nodes, plus the nodes
    nearest the edges of both rules at the full counts (2000 and 4000),
    where sqrt(1 - x^2) magnifies a last-bit difference in x most."""
    parts = [verify.gauss_nodes(600)[0], cosine_nodes(600)]
    for count in (2000, 4000):
        parts += [edges(verify.gauss_nodes(count)[0]), edges(cosine_nodes(count))]
    return np.concatenate(parts)


def max_rel_dev(grid, scalar):
    return float(np.max(np.abs(grid - scalar) / np.abs(scalar)))


def scalar_values(fn, points):
    return np.array([fn(float(x)) for x in points])


@pytest.fixture(scope="module")
def nodes():
    return orthogonality_nodes()


class TestWeightGrids:
    @pytest.mark.parametrize("case", sorted(ORTHO_CASES))
    def test_weight_matches_scalar_at_every_node(self, case, nodes):
        params = cdqhahn.CDQHParams(*ORTHO_CASES[case])
        grid = cdqhahn.weight(params, nodes)
        assert grid.shape == nodes.shape
        assert max_rel_dev(grid, scalar_values(lambda x: cdqhahn.weight(params, x), nodes)) \
            <= GRID_REL_TOL

    def test_reduced_weight_matches_scalar_at_every_node(self, nodes):
        params = cdqhahn.CDQHParams(*ORTHO_CASES["reduced"])
        grid = cdqhahn.weight_reduced(params, nodes)
        scalar = scalar_values(lambda x: cdqhahn.weight_reduced(params, x), nodes)
        assert max_rel_dev(grid, scalar) <= GRID_REL_TOL

    def test_weight_factors_match_scalar(self):
        params = cdqhahn.CDQHParams(*ORTHO_CASES["associated"])
        xs = cosine_nodes(50)

        def factors(x):
            point = cdqhahn.spectral_point(params, x=x, side=cdqhahn.ABOVE)
            return [params._ratio_denominator(lam) for lam in (point.lam_minus, point.lam_plus)]

        fm, fp = factors(xs)
        for i, x in enumerate(xs):
            sm, sp = factors(float(x))
            assert abs(fm[i] - sm) <= GRID_REL_TOL * abs(sm)
            assert abs(fp[i] - sp) <= GRID_REL_TOL * abs(sp)

    @pytest.mark.parametrize("fam", WEIGHT_FAMILIES, ids=lambda f: f.family_id)
    def test_limit_weight_matches_scalar_at_every_node(self, fam, nodes):
        grid = limits.limit_weight(fam, nodes)
        scalar = scalar_values(lambda x: limits.limit_weight(fam, x), nodes)
        assert max_rel_dev(grid, scalar) <= GRID_REL_TOL

    def test_gram_matrix_takes_the_node_array(self):
        params = cdqhahn.CDQHParams(*ORTHO_CASES["reduced"])
        calls = []

        def density(x):
            calls.append(np.shape(x))
            return cdqhahn.weight(params, x)

        verify.gram_matrix(density, params, params.alpha.real, 3, 200, "cosine")
        assert calls == [(200,)]

    @pytest.mark.parametrize("case", sorted(ORTHO_CASES))
    def test_spectral_point_keeps_the_given_x(self, case):
        # a round trip through z can move an edge node by an ulp
        params = cdqhahn.CDQHParams(*ORTHO_CASES[case])
        x = np.concatenate([edges(verify.gauss_nodes(4000)[0]), edges(cosine_nodes(4000))])
        for side in (cdqhahn.ABOVE, cdqhahn.BELOW):
            assert all(cdqhahn.spectral_point(params, x=x0, side=side).x == x0
                       for x0 in x.tolist())
            assert np.array_equal(cdqhahn.spectral_point(params, x=x, side=side).x, x)

    def test_gram_matrix_is_the_forward_recurrence(self):
        params = cdqhahn.CDQHParams(*ORTHO_CASES["reduced"])
        scale = params.alpha.real
        x = cosine_nodes(50)
        gram = verify.gram_matrix(lambda v: np.ones_like(v), params, scale, 4, 50, "cosine")
        values = np.array([[recurrence.forward_eval(params, x0 / scale, 0.0, 1.0, 4).value(n)
                            for x0 in x.tolist()] for n in range(5)])
        quad_w = np.sin((np.arange(50) + 0.5) * math.pi / 50) * (math.pi / 50)
        assert np.array_equal(gram, (values * quad_w) @ values.T.conj())

    def test_gauss_nodes_are_shared_and_read_only(self):
        x, w = verify.gauss_nodes(40)
        assert verify.gauss_nodes(40)[0] is x
        with pytest.raises(ValueError):
            x[0] = 0.0
        with pytest.raises(ValueError):
            w[0] = 0.0


class TestGridErrors:
    def test_point_outside_support(self):
        params = cdqhahn.CDQHParams(*ORTHO_CASES["associated"])
        with pytest.raises(ValueError):
            cdqhahn.weight(params, 1.2)
        with pytest.raises(ValueError, match="1.2"):
            cdqhahn.weight(params, np.array([0.1, 1.2, 0.3]))

    def test_imaginary_residue(self):
        fam = limits.AlSalamChihara(0.5, 0.35 + 0.05j, 0.45, 0.7)
        with pytest.raises(NonRealResult):
            limits.limit_weight(fam, 0.3)
        with pytest.raises(NonRealResult):
            limits.limit_weight(fam, np.array([0.3, 0.5]))

    def test_no_usable_representation(self):
        # at the second point |z| > 1 and both numerator parameters lie
        # outside the unit disk, so no candidate applies
        with pytest.raises(NoConvergentRepresentation):
            qseries.phi21(1.5, 1.2, 0.5, 1.5, 0.5)
        with pytest.raises(NoConvergentRepresentation):
            qseries.phi21(np.array([0.3, 1.5]), 1.2, 0.5, np.array([0.5, 1.5]), 0.5)

    def test_balanced_series_without_convergent_form(self):
        # |de/(abc)| = 9/8 and every pivot argument is at least 1.5; the
        # grid names its first such point as the scalar call does
        with pytest.raises(NoConvergentRepresentation) as scalar:
            qseries.phi32(2.0, 2.0, 2.0, 3.0, 3.0, 0.45)
        with pytest.raises(NoConvergentRepresentation) as grid:
            qseries.phi32(np.array([0.4, 2.0, 2.2]), 2.0, 2.0, 3.0, 3.0, 0.45)
        assert str(grid.value) == str(scalar.value)

    def test_zero_numerator_parameter(self):
        with pytest.raises(ZeroDivisor):
            qseries.phi32(np.array([0.4, 0.0]), 0.3, 0.5, 0.2, 0.6, 0.5)


class TestSeriesGrids:
    def test_infinite_qpoch_matches_scalar(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(-3, 3, 200) + 1j * rng.uniform(-3, 3, 200)
        grid = qseries.qpoch(a, 0.45)
        scalar = np.array([qseries.qpoch(v, 0.45) for v in a])
        assert max_rel_dev(grid, scalar) <= GRID_REL_TOL

    def test_phi32_outside_unit_disk_matches_scalar(self):
        # balanced series with |de/(abc)| > 1: every point continues, and
        # the best-ranked continuation differs from point to point
        rng = np.random.default_rng(7)
        q = 0.45
        a = rng.uniform(0.15, 0.9, 4000)
        b = rng.uniform(0.15, 0.9, 4000)
        c = rng.uniform(0.15, 0.9, 4000) * np.exp(1j * rng.uniform(-1, 1, 4000))
        d = rng.uniform(0.2, 0.95, 4000)
        e = rng.uniform(0.2, 0.95, 4000)
        keep = np.abs(d * e / (a * b * c)) > 1.05
        a, b, c, d, e = a[keep][:300], b[keep][:300], c[keep][:300], d[keep][:300], e[keep][:300]
        leading = set()
        for i in range(a.size):
            spec = qseries._balanced_spec(a[i], b[i], c[i], d[i], e[i], q)
            cands = [cand for cand in qseries._phi32_candidates(spec) if cand[0]]
            leading.add(min(cands, key=lambda cand: abs(cand[1]))[2])
        assert leading == {"pivot-up", "pivot-arg"}
        grid = qseries.phi32(a, b, c, d, e, q)
        scalar = np.array([qseries.phi32(a[i], b[i], c[i], d[i], e[i], q) for i in range(a.size)])
        assert max_rel_dev(grid, scalar) <= GRID_REL_TOL

    def test_phi32_grid_with_terminating_points(self):
        # b = q^-m terminates the series at every third point; the others
        # sum directly or continue, inside and outside the unit disk
        rng = np.random.default_rng(5)
        q, size = 0.5, 60
        a, b, c = (rng.uniform(0.15, 0.9, size) for _ in range(3))
        d, e = (rng.uniform(0.2, 0.95, size) * np.exp(1j * rng.uniform(-1, 1, size))
                for _ in range(2))
        b[::3] = q ** -(np.arange(size // 3) % 4 + 1.0)
        for i, bi in enumerate((q ** -2, 0.3)):
            a[i], b[i], c[i], d[i], e[i] = 0.4, bi, 0.6, 0.7, 0.8
        spec = qseries._balanced_spec(a, b, c, d, e, q)
        stop = qseries.series_termination(spec)
        assert (stop >= 0).sum() == size // 3
        w = np.abs(spec.argument[stop < 0])
        assert (w < 1).any() and (w > 1).sum() > 10
        grid = qseries.phi32(a, b, c, d, e, q)
        for i in range(size):
            scalar = qseries.phi32(a[i], b[i], c[i], d[i], e[i], q)
            assert abs(grid[i] - scalar) <= GRID_REL_TOL * abs(scalar)

    @pytest.mark.parametrize("c", [0.0, 0.35])
    def test_phi11_matches_scalar(self, c):
        z = np.linspace(0.1, 3.0, 40) * np.exp(0.3j)
        grid = qseries.phi11(0.6, c, z, 0.5)
        scalar = np.array([qseries.phi11(0.6, c, v, 0.5) for v in z])
        assert max_rel_dev(grid, scalar) <= GRID_REL_TOL

    def test_phi21_matches_scalar(self):
        z = np.linspace(0.1, 2.5, 40) * np.exp(0.2j)
        grid = qseries.phi21(0.6, 0.3, 0.45, z, 0.5)
        scalar = np.array([qseries.phi21(0.6, 0.3, 0.45, v, 0.5) for v in z])
        assert max_rel_dev(grid, scalar) <= GRID_REL_TOL

    def test_phi_core_grid_reports_each_failure(self):
        # the second point sits on the unit circle of a 2-phi-1
        spec = qseries.SeriesSpec((0.3, 0.4), (0.5,), 0.5, np.array([0.5, 1.0]))
        value, _, _, errors = qseries._phi_core(spec, qseries.DEFAULT_POLICY)
        assert errors[0] is None
        assert type(errors[1]).__name__ == "DivergentSeries"
        scalar = qseries.phi(qseries.SeriesSpec((0.3, 0.4), (0.5,), 0.5, 0.5))
        assert abs(value[0] - scalar) <= GRID_REL_TOL * abs(scalar)


# the scans of the acceptance zero test: the fourth-limit handle of
# orders -1..3 on its windows, and the limit_cf_parts pairs, plus the
# fourth family with a scan-ready pair
SCAN_QS = (0.3, 0.5, 0.8)
SCAN_FAMILIES = [
    limits.AlSalamCarlitz1(0.5, 0.4, -0.8),
    limits.LimitASC1(0.5, 0.8),
    limits.QBesselOrder(0.5, -0.8),
    limits.LimitQHermite(0.5, 0.8),
]


def scan_grid(lo, hi, samples):
    return np.array(limits._grid(lo, hi, samples, True))


class TestScanGrids:
    @pytest.mark.parametrize("q", SCAN_QS)
    def test_fourth_limit_grid_is_the_scalar_handle_bit_for_bit(self, q):
        fam = limits.FourthLimit(q)
        for n in (-1, 0, 1, 2, 3):
            f = limits.fourth_limit_series(fam, n)
            x = scan_grid(*limits.fourth_limit_zero_window(q, n, 8), 4000)
            grid = f(x)
            assert grid.dtype == float
            assert grid.tolist() == [f(v) for v in x.tolist()]

    @pytest.mark.parametrize("fam", SCAN_FAMILIES, ids=lambda f: f.family_id)
    def test_cf_parts_grid_matches_scalar(self, fam):
        x = scan_grid(0.02, 1.8, 6000)
        grid = limits.limit_cf_parts(fam, x)
        scalar = [limits.limit_cf_parts(fam, v) for v in x.tolist()]
        for part in (0, 1):
            g = grid[part].real
            s = np.array([value[part].real for value in scalar])
            assert np.array_equal(np.sign(g), np.sign(s))
            # the nodes on either side of a sign change sit next to a
            # zero, where a last-bit difference is large relative to |f|
            change = np.flatnonzero(np.sign(s[:-1]) != np.sign(s[1:]))
            away = np.ones(s.size, dtype=bool)
            away[change] = away[change + 1] = False
            assert max_rel_dev(g[away], s[away]) <= GRID_REL_TOL

    def test_zero_in_the_grid_is_a_named_error(self):
        x = np.array([-1.0, 0.0, 1.0])
        with pytest.raises(ZeroDivisor):
            limits.fourth_limit_series(limits.FourthLimit(0.5), 0)(x)
        with pytest.raises(ZeroDivisor):
            limits.limit_cf_parts(limits.LimitASC1(0.5, 0.8), x)

    def test_fourth_limit_grid_takes_real_points(self):
        with pytest.raises(TypeError):
            limits.fourth_limit_series(limits.FourthLimit(0.5), 0)(np.array([-1.0 + 0.5j]))

    def test_phi01_matches_scalar(self):
        w = np.linspace(-3.0, 3.0, 41) * np.exp(0.4j)
        grid = qseries.phi01(0.3, w, 0.5)
        scalar = np.array([qseries.phi01(0.3, v, 0.5) for v in w])
        assert max_rel_dev(grid, scalar) <= GRID_REL_TOL
