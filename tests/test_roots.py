import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    assert_multisets_close,
    inf_point,
    point,
    random_h,
    random_points,
    random_unit_vector,
    reference_find_roots,
    reference_linkage,
    reference_scaled_residual,
)
from stellarinv import (
    MajoranaPolynomial,
    SphereVector,
    apply_operator,
    chordal_distance,
    cluster,
    degeneracy_class,
    dicke_state,
    find_roots,
    from_dicke,
    from_sphere,
    ghz_state,
    lu_unitary,
    majorana_polynomial,
    slocc_summary,
    time_reversal,
    w_state,
)
from stellarinv import roots
from stellarinv.roots import DEFAULT_ROOT_TOL, _scaled_residuals, single_linkage
from stellarinv.states import LEADING_COEFF_TOL, projective_pairs

EPS = np.finfo(float).eps


def poly(coeffs):
    return MajoranaPolynomial(np.asarray(coeffs, dtype=complex))


class TestFindRoots:
    def test_one_plus_alpha_cubed(self):
        got = find_roots(poly([1, 0, 0, 1]))
        want = [point(np.exp(1j * np.pi / 3)), point(-1), point(np.exp(-1j * np.pi / 3))]
        assert_multisets_close(got, want, 1e-12)

    def test_monomial_with_infinities(self):
        got = find_roots(poly([0, np.sqrt(3), 0, 0]))
        want = [point(0), inf_point(), inf_point()]
        assert_multisets_close(got, want, 1e-14)

    def test_one_plus_alpha_fourth(self):
        got = find_roots(poly([1, 0, 0, 0, 1]))
        want = [point(np.exp(1j * k * np.pi / 4)) for k in (1, 3, 5, 7)]
        assert_multisets_close(got, want, 1e-12)

    def test_zero_polynomial(self):
        with pytest.raises(ValueError):
            find_roots(poly([0, 0, 0]))

    def test_residuals_meet_bound(self):
        rng = np.random.default_rng(21)
        for n in range(2, 13):
            c = rng.uniform(-1, 1, size=n + 1) + 1j * rng.uniform(-1, 1, size=n + 1)
            p = poly(c)
            scale = np.abs(c).max()
            for r in find_roots(p):
                if not r.is_infinite:
                    z = r.value
                    if abs(z) <= 1:
                        res = abs(np.polyval(c[::-1], z))
                    else:
                        res = abs(np.polyval(c, 1 / z))
                    assert res <= DEFAULT_ROOT_TOL * scale

    def test_monic_reconstruction(self):
        # product over returned finite roots matches the monic input polynomial
        rng = np.random.default_rng(22)
        for n in range(2, 13):
            for _ in range(5):
                c = rng.uniform(-1, 1, size=n + 1) + 1j * rng.uniform(-1, 1, size=n + 1)
                p = poly(c)
                if p.degree != n:
                    continue
                roots = [r.value for r in find_roots(p)]
                rebuilt = np.polynomial.polynomial.polyfromroots(roots)
                monic = c / c[n]
                np.testing.assert_allclose(rebuilt, monic, rtol=0, atol=1e-8 * np.abs(monic).max())

    def test_tol_below_reach_raises(self, monkeypatch):
        monkeypatch.setattr("stellarinv.roots.DEFAULT_ROOT_TOL", 1e-300)
        rng = np.random.default_rng(26)
        c = rng.normal(size=9) + 1j * rng.normal(size=9)
        with pytest.raises(ArithmeticError, match="exceeds bound"):
            find_roots(poly(c))

    def test_array_residuals_match_horner(self):
        # the one evaluator of find_roots' gate, polish and bound against scalar Horner
        rng = np.random.default_rng(27)
        for d in (1, 2, 3, 8, 16, 33, 64):
            c = (rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1)) * 10 ** rng.uniform(
                -3, 3, size=d + 1
            )
            z = np.concatenate(
                [
                    np.roots(c[::-1]),
                    [0, 1e200, -1e200j, 1, -1j],
                    (rng.normal(size=8) + 1j * rng.normal(size=8)) * 10 ** rng.uniform(-5, 5, 8),
                ]
            )
            want = [reference_scaled_residual(c.tolist(), complex(w)) for w in z]
            np.testing.assert_allclose(
                _scaled_residuals(c, z), want, rtol=0, atol=4 * (d + 1) * EPS * np.abs(c).max()
            )

    @pytest.mark.parametrize("n", [12, 16, 20, 24, 32])
    def test_newton_polish_reaches_the_floor(self, monkeypatch, n):
        # some raw eigenvalues of GHZ_n lie above the floor
        steps = []
        newton_step = roots._newton_step

        def spy(asc, z):
            steps.append(z)
            return newton_step(asc, z)

        monkeypatch.setattr(roots, "_newton_step", spy)
        p = majorana_polynomial(ghz_state(n))
        got = np.array([r.value for r in find_roots(p)])
        assert steps, "no root reached the Newton polish"
        want = np.exp(1j * np.pi * (2 * np.arange(n) + 1) / n)
        assert np.abs(got[:, None] - want).min(axis=1).max() <= 1e-14
        c = p.coefficients
        scale = np.abs(c).max()
        floor = 64 * EPS * scale
        assert _scaled_residuals(c, got).max() <= floor

    def test_multiplicity_and_infinity_counts(self):
        rng = np.random.default_rng(23)
        for n in range(1, 11):
            d = int(rng.integers(0, n + 1))
            c = np.zeros(n + 1, dtype=complex)
            c[: d + 1] = rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1)
            c[d] += 3.0  # keep the leading coefficient solid
            p = poly(c)
            roots = find_roots(p)
            assert len(roots) == n
            assert sum(1 for r in roots if r.is_infinite) == n - p.degree


def class_of(state):
    return degeneracy_class(find_roots(majorana_polynomial(state)))


def pole_counts(points):
    """(exact zeros, exact infinities) among the points."""
    return sum(p.a == 0 for p in points), sum(p.is_infinite for p in points)


def bits(points):
    return [(p.a, p.b) for p in points]


class TestOnePoleRule:
    """One threshold decides exact roots at 0 and at infinity alike."""

    @pytest.mark.parametrize("n", range(2, 13))
    def test_z_rotated_dicke_keeps_its_class(self, n):
        # lu_unitary((0, 0, theta), n) leaks about 1e-16 into zero amplitudes
        for k in range(n + 1):
            want = tuple(sorted((m for m in (k, n - k) if m), reverse=True))
            for theta in (0.3, 1.1, 2.5, 4.0):
                moved = apply_operator(lu_unitary((0, 0, theta), n), dicke_state(n, k))
                assert class_of(moved) == want, (k, theta)

    def test_tiny_end_classifies_like_its_time_reverse(self):
        rng = np.random.default_rng(2009)
        snapped = 0
        for _ in range(400):
            n = int(rng.integers(3, 11))
            a = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
            a[: int(rng.integers(1, n - 1))] *= 10.0 ** -rng.uniform(12.2, 17)
            state = from_dicke(n, a if rng.random() < 0.5 else a[::-1])
            mirror = time_reversal(state)
            assert class_of(state) == class_of(mirror)
            zeros, infs = pole_counts(find_roots(majorana_polynomial(state)))
            assert pole_counts(find_roots(majorana_polynomial(mirror))) == (infs, zeros)
            snapped += zeros + infs > 0
        assert snapped > 200  # most draws fall below the threshold

    def test_tiny_end_finite_roots_are_antipodes_of_its_time_reverse(self):
        # both sides gate and polish against the kept powers, so a snapped end
        # coefficient steers neither
        rng = np.random.default_rng(2828)
        for _ in range(200):
            n = int(rng.integers(3, 11))
            a = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
            a[: int(rng.integers(1, n - 1))] *= 10.0 ** -rng.uniform(12.2, 17)
            state = from_dicke(n, a if rng.random() < 0.5 else a[::-1])
            mirror = time_reversal(state)
            finite = [p for p in find_roots(majorana_polynomial(state)) if p.a != 0 and p.b != 0]
            moved = [
                p.antipode()
                for p in find_roots(majorana_polynomial(mirror))
                if p.a != 0 and p.b != 0
            ]
            assert_multisets_close(finite, moved, 1e-13)

    def test_poles_are_appended_unpolished(self):
        # 1e-13 at both ends, above the polish floor at 0: an exact 0 and an
        # exact infinity follow the roots of 1 + a^2
        got = find_roots(poly([1e-13, 1, 0, 1, 1e-13]))
        assert bits(got[2:]) == [(0j, 1 + 0j), (1 + 0j, 0j)]
        assert_multisets_close(got[:2], [point(1j), point(-1j)], 1e-12)

    def test_matches_np_roots_reference_bit_for_bit(self):
        # wherever every low coefficient is exactly zero or above the threshold
        rng = np.random.default_rng(1101)
        states = []
        for _ in range(200):
            n = int(rng.integers(1, 33))
            a = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
            a[: int(rng.integers(0, n + 1))] = 0.0
            states.append(from_dicke(n, a))
        for n in range(2, 25):
            family = [ghz_state(n), w_state(n), *(dicke_state(n, k) for k in range(n + 1))]
            states += family
            states += [apply_operator(lu_unitary(random_h(rng), n), s) for s in family]
        compared = 0
        for state in states:
            p = majorana_polynomial(state)
            mags = np.abs(p.coefficients)
            if mags[mags > 0][0] <= LEADING_COEFF_TOL * mags.max():
                continue  # a nonzero low coefficient snaps to zero: the rules differ
            assert bits(find_roots(p)) == bits(reference_find_roots(p))
            compared += 1
        assert compared > 500


class TestCluster:
    def test_exact_coincidence(self):
        pts = [point(0), inf_point(), inf_point()]
        got = cluster(pts, 1e-6)
        sig = {}
        for rep, mult in got:
            key = "inf" if rep.is_infinite else round(abs(rep.value), 6)
            sig[key] = mult
        assert sig == {"inf": 2, 0.0: 1}

    def test_separated_points_stay_single(self):
        pts = [point(np.exp(1j * np.pi / 3)), point(-1), point(np.exp(-1j * np.pi / 3))]
        got = cluster(pts, 1e-6)
        assert [mult for _, mult in got] == [1, 1, 1]

    def test_sub_threshold_pair_merges(self):
        got = cluster([point(0), point(1e-9), point(5)], 1e-6)
        assert [mult for _, mult in got] == [2, 1]
        rep, mult = got[0]
        assert mult == 2
        assert abs(rep.value) < 1e-8

    def test_multiplicities_sum_to_n(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            pts = [point(complex(rng.normal(), rng.normal())) for _ in range(n)]
            got = cluster(pts, 10 ** rng.uniform(-8, -1))
            assert sum(mult for _, mult in got) == n

    def test_representative_is_chordal_centroid(self):
        eps = 1e-8
        got = cluster([point(1 - eps), point(1 + eps)], 1e-6)
        assert len(got) == 1
        rep, mult = got[0]
        assert mult == 2
        assert chordal_distance(rep, point(1)) <= 1e-12


@st.composite
def planted_clusters(draw):
    """Up to 8 clusters of up to 8 points, each member within tol/10
    (chordal) of its centre, shuffled; about half the centres sit at
    infinity, where the first member is the exact point at infinity."""
    tol = 10 ** draw(st.floats(-9, -2))
    sizes = draw(st.lists(st.integers(1, 8), max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = []
    for size in sizes:
        at_infinity = draw(st.booleans())
        centre = np.array([0.0, 0.0, -1.0]) if at_infinity else random_unit_vector(rng)
        for k in range(size):
            offset = random_unit_vector(rng) * rng.uniform(0, tol / 10)
            if at_infinity and k == 0:
                offset = np.zeros(3)
            v = centre + offset
            pts.append(from_sphere(SphereVector(*(v / np.linalg.norm(v)))))
    return [pts[i] for i in rng.permutation(len(pts))], tol


def groups_of(labels):
    """Member indices of each group of a label array, in label order."""
    return [np.flatnonzero(labels == g).tolist() for g in range(labels.max(initial=-1) + 1)]


class TestSingleLinkage:
    @settings(max_examples=60, deadline=None)
    @given(planted_clusters())
    def test_matches_scalar_reference(self, case):
        pts, tol = case
        want = reference_linkage(pts, tol)
        sizes = sorted(map(len, want), reverse=True)
        assert groups_of(single_linkage(projective_pairs(pts), tol)) == want
        assert degeneracy_class(pts, tol) == tuple(sizes)
        assert [mult for _, mult in cluster(pts, tol)] == sizes
        assert slocc_summary(pts, tol).degeneracy == tuple(sizes)

    def test_chain_is_transitive(self):
        tol = 1e-6
        # chordal distance near 0 is about twice the plane distance
        pts = [point(0), point(0.3 * tol), point(0.6 * tol)]
        assert chordal_distance(pts[0], pts[1]) <= tol
        assert chordal_distance(pts[1], pts[2]) <= tol
        assert chordal_distance(pts[0], pts[2]) > tol
        for order in ([0, 1, 2], [0, 2, 1], [2, 0, 1]):
            chain = [pts[i] for i in order]
            assert single_linkage(projective_pairs(chain), tol).tolist() == [0, 0, 0]
            assert degeneracy_class(chain, tol) == (3,)
            assert [mult for _, mult in cluster(chain, tol)] == [3]

    def test_threshold_is_inclusive(self):
        # antipodes sit at chordal distance exactly 2
        for pts in ([point(0), inf_point()], [point(1), point(-1)]):
            assert single_linkage(projective_pairs(pts), 2.0).tolist() == [0, 0]
            assert single_linkage(projective_pairs(pts), 1.999).tolist() == [0, 1]

    def test_empty_and_single_point(self):
        assert single_linkage(projective_pairs([]), 1e-7).tolist() == []
        assert degeneracy_class([], 1e-7) == ()
        assert cluster([], 1e-7) == []
        p = point(0.3 - 2j)
        assert single_linkage(projective_pairs([p]), 1e-7).tolist() == [0]
        assert degeneracy_class([p], 1e-7) == (1,)
        [(rep, mult)] = cluster([p], 1e-7)
        assert mult == 1 and chordal_distance(rep, p) <= 1e-15

    @pytest.mark.parametrize("tol", [0.0, -1e-7])
    def test_non_positive_tol_rejected(self, tol):
        with pytest.raises(ValueError):
            single_linkage(projective_pairs([point(0), point(1)]), tol)
        with pytest.raises(ValueError):
            degeneracy_class([point(0), point(1)], tol)

    def test_links_across_row_blocks(self):
        # 204 points take three row blocks; the planted near-copies link
        # rows of different blocks
        rng = np.random.default_rng(8)
        pts = random_points(rng, 200, min_sep=1e-3)

        def near(i):
            return point(pts[i].value + 1e-9)

        pts[120] = near(3)
        pts += [near(3), near(150), inf_point(), near(199)]
        want = reference_linkage(pts, 1e-7)
        assert sorted(map(len, want), reverse=True)[:4] == [3, 2, 2, 1]
        assert groups_of(single_linkage(projective_pairs(pts), 1e-7)) == want

    def test_slocc_summary_at_qubit_ceiling(self):
        rng = np.random.default_rng(1029)
        z = rng.normal(size=1029) + 1j * rng.normal(size=1029)
        assert slocc_summary([point(x) for x in z]).degeneracy == (1,) * 1029
