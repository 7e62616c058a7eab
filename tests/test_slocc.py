import cmath
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from helpers import (
    inf_point,
    multiset_distance,
    point,
    random_points,
    reference_i2_n4,
    reference_linkage,
    reference_power_sums,
    signed_zero_complex,
)
from stellarinv import (
    DegenerateInputError,
    DivergentSumError,
    MobiusTransform,
    RiemannPoint,
    anharmonic_orbit,
    apply_mobius,
    canonical_representative,
    chordal_distance,
    cross_ratio,
    degeneracy_class,
    ghz4_family,
    i2_closed_n4,
    klein_j,
    lambda_vector,
    slocc_summary,
    symmetrized_ik,
)
from stellarinv import slocc
from stellarinv.roots import DEFAULT_CLUSTER_TOL, find_roots, single_linkage
from stellarinv.slocc import COINCIDENCE_TOL, MAX_IK_N, MAX_POWER_SUM_N, SUMMARY_POWERS
from stellarinv.states import majorana_polynomial, projective_differences, projective_pairs

OMEGA = np.exp(1j * np.pi / 3)  # equianharmonic cross ratio, root of l^2 - l + 1

# chordal(0, 4e-13) and chordal(4e-13, 8e-13) fall below the 1e-12 coincidence
# tolerance, chordal(0, 8e-13) does not; single linkage still joins all three
# through 4e-13, so at 1e-12 as at the clustering tolerance they are one root.
CHAIN = [0.0, 4e-13, 8e-13, 1.0]


def ghz4_roots():
    return [point(np.exp(1j * k * np.pi / 4)) for k in (1, 3, 5, 7)]


def orbit_values(lam):
    return [None if p.is_infinite else p.value for p in anharmonic_orbit(lam)]


def brute_force_power_sum(values, k):
    """Independent oracle: sum the cross ratios directly over every ordering.

    ``values`` are plain complex numbers (None for infinity); the leading
    cross ratio (alpha4 - alpha1)(alpha2 - alpha3) / ((alpha4 - alpha3)
    (alpha2 - alpha1)) is evaluated with direct limits at infinity.
    """

    def diff(x, y):
        # returns (value, order) where order is the power of the infinity limit
        if x is None and y is None:
            raise ZeroDivisionError
        if x is None or y is None:
            return 1.0, 1
        return x - y, 0

    total = 0.0 + 0.0j
    for perm in itertools.permutations(range(len(values))):
        a1, a2, a3, a4 = (values[perm[i]] for i in range(4))
        n1, o1 = diff(a4, a1)
        n2, o2 = diff(a2, a3)
        d1, o3 = diff(a4, a3)
        d2, o4 = diff(a2, a1)
        if o1 + o2 != o3 + o4:
            # an unmatched infinity factor: the limit is 0 or infinity
            if o1 + o2 < o3 + o4:
                continue
            raise ZeroDivisionError
        total += ((n1 * n2) / (d1 * d2)) ** k
    return total


class TestCrossRatio:
    @seed(41)
    @settings(max_examples=60, deadline=None)
    @given(re=st.floats(-5, 5), im=st.floats(-5, 5))
    def test_normalized_triple_closed_form(self, re, im):
        lam = complex(re, im)
        if min(abs(lam), abs(lam - 1)) < 1e-3:
            return
        got = cross_ratio(point(0), point(1), inf_point(), point(lam))
        assert abs(got.value - (lam - 1) / lam) <= 1e-12 * max(1, abs(lam))

    def test_ghz4_identity_order(self):
        r = ghz4_roots()
        got = cross_ratio(r[0], r[1], r[2], r[3])
        np.testing.assert_allclose(got.value, 2.0, atol=1e-12)

    def test_simple_substitution(self):
        got = cross_ratio(point(0), point(1), inf_point(), point(2))
        np.testing.assert_allclose(got.value, 0.5, atol=1e-15)

    def test_too_few_distinct(self):
        with pytest.raises(ValueError):
            cross_ratio(point(0), point(0), point(1), point(1))

    def test_three_distinct_is_defined(self):
        got = cross_ratio(point(0), point(1), point(0), point(2))
        np.testing.assert_allclose(got.value, 0.0, atol=1e-15)

    def test_near_coincident_chain_in_every_order(self):
        # the chain is one group, so two groups remain, whatever the argument order
        for order in itertools.permutations(CHAIN):
            with pytest.raises(ValueError, match="three distinct"):
                cross_ratio(*(point(z) for z in order))


class TestAnharmonicOrbit:
    def test_harmonic_orbit_of_two(self):
        vals = sorted(orbit_values(2.0), key=lambda z: (z.real, z.imag))
        np.testing.assert_allclose(vals, [-1, -1, 0.5, 0.5, 2, 2], atol=1e-14)

    def test_equianharmonic_collapse(self):
        vals = orbit_values(OMEGA)
        near_omega = sum(1 for v in vals if abs(v - OMEGA) < 1e-12)
        near_conj = sum(1 for v in vals if abs(v - OMEGA.conjugate()) < 1e-12)
        assert (near_omega, near_conj) == (3, 3)

    def test_generic_orbit(self):
        vals = sorted(orbit_values(3.0), key=lambda z: z.real)
        np.testing.assert_allclose(vals, [-2, -0.5, 1 / 3, 2 / 3, 1.5, 3], atol=1e-14)

    def test_degenerate_orbit_collapses(self):
        members = anharmonic_orbit(0.0)
        infs = sum(1 for p in members if p.is_infinite)
        zeros = sum(1 for p in members if not p.is_infinite and abs(p.value) < 1e-15)
        ones = sum(1 for p in members if not p.is_infinite and abs(p.value - 1) < 1e-15)
        assert (infs, zeros, ones) == (2, 2, 2)

    @seed(42)
    @settings(max_examples=60, deadline=None)
    @given(re=st.floats(-3, 3), im=st.floats(-3, 3))
    def test_orbit_closure(self, re, im):
        lam = complex(re, im)
        if min(abs(lam), abs(lam - 1)) < 1e-2:
            return
        base = anharmonic_orbit(lam)
        for member in base:
            again = anharmonic_orbit(member)
            assert multiset_distance(base, again) <= 1e-10


class TestKleinJ:
    def test_harmonic_values(self):
        np.testing.assert_allclose(klein_j(0.5), 1.0, atol=1e-14)
        np.testing.assert_allclose(klein_j(2.0), 1.0, atol=1e-14)
        np.testing.assert_allclose(klein_j(-1.0), 1.0, atol=1e-14)

    def test_equianharmonic_zero(self):
        assert abs(klein_j(OMEGA)) <= 1e-15

    def test_poles_raise(self):
        for bad in (0.0, 1.0, inf_point()):
            with pytest.raises(DegenerateInputError):
                klein_j(bad)

    @pytest.mark.parametrize("lam", [1e200, 1e-160, 1 - 1e-160j], ids=str)
    def test_values_beyond_floats_raise(self, lam):
        # J is about 4 / (27 d^2) at a distance d from a pole, or 4 l^2 / 27
        with pytest.raises(DegenerateInputError, match="no float value"):
            klein_j(lam)

    def test_exact_at_powers_of_ten_across_the_float_range(self):
        # no factor of the formula leaves the floats before J does, so J of
        # the floats nearest +-10^e keeps its exact value to a few ulps
        for e in range(-154, 155):
            for lam in (float(f"1e{e}"), -float(f"1e{e}")):
                if lam == 1.0:  # a pole
                    continue
                x = Fraction(lam)
                exact = 4 * (x * x - x + 1) ** 3 / (27 * x * x * (x - 1) ** 2)
                got = klein_j(lam)
                assert got.imag == 0.0
                assert abs(Fraction(got.real) - exact) <= Fraction(2e-15) * exact, lam

    @pytest.mark.parametrize("form", [klein_j, i2_closed_n4], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("lam", [1e160, -1e160, 1e-160, 0.0, 1.0, inf_point()], ids=str)
    def test_poles_and_values_beyond_floats_raise_in_both_forms(self, form, lam):
        with pytest.raises(DegenerateInputError, match="no float value"):
            form(lam)

    def test_i2_beyond_floats_where_j_is_not_raises(self):
        # J(1e154) is about 1.48e307, and 27/2 J is beyond floats
        assert cmath.isfinite(klein_j(1e154))
        with pytest.raises(DegenerateInputError, match="no float value"):
            i2_closed_n4(1e154)

    @settings(max_examples=200, deadline=None)
    @given(st.complex_numbers(max_magnitude=1e300, allow_nan=False, allow_infinity=False))
    def test_a_value_is_finite_or_refused(self, lam):
        for form in (klein_j, i2_closed_n4):
            try:
                value = form(lam)
            except DegenerateInputError:
                continue
            assert cmath.isfinite(value)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(60, 150), st.floats(0, 2 * math.pi))
    def test_constant_on_orbits_of_huge_cross_ratios(self, e, angle):
        lam = cmath.rect(10.0**e, angle)
        j0 = klein_j(lam)
        # l / (l - 1) and (l - 1) / l are 1 + O(1/l): their floats are the pole 1
        for member in anharmonic_orbit(lam)[:4]:
            assert abs(klein_j(member) - j0) <= 1e-13 * abs(j0)

    def test_constant_on_orbits(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            lam = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if min(abs(lam), abs(lam - 1)) < 0.05:
                continue
            j0 = klein_j(lam)
            for member in anharmonic_orbit(lam):
                assert abs(klein_j(member) - j0) <= 1e-9 * max(1.0, abs(j0))

    def test_orbit_recovered_from_level_set(self):
        # J(l1) = J(l2) only when l2 lies on the orbit of l1: the level set
        # 4 (l^2-l+1)^3 - 27 J0 l^2 (l-1)^2 = 0 is exactly the orbit.
        rng = np.random.default_rng(44)
        for _ in range(20):
            lam = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if min(abs(lam), abs(lam - 1)) < 0.1:
                continue
            j0 = klein_j(lam)
            # expand 4 (l^2 - l + 1)^3 - 27 j0 l^2 (l - 1)^2, ascending
            base = np.array([4, -12, 24, -28, 24, -12, 4], dtype=complex)
            corr = 27 * j0 * np.array([0, 0, 1, -2, 1, 0, 0], dtype=complex)
            level = np.roots((base - corr)[::-1])
            got = [point(z) for z in level]
            want = anharmonic_orbit(lam)
            assert multiset_distance(got, want) <= 1e-6


class TestI2Closed:
    def test_half(self):
        np.testing.assert_allclose(i2_closed_n4(0.5), 10.5, atol=1e-12)

    def test_equianharmonic(self):
        np.testing.assert_allclose(i2_closed_n4(OMEGA), -3.0, atol=1e-12)

    def test_orbit_invariance_at_two(self):
        np.testing.assert_allclose(i2_closed_n4(2.0), 10.5, atol=1e-12)

    def test_pole(self):
        with pytest.raises(DegenerateInputError):
            i2_closed_n4(0.0)
        with pytest.raises(DegenerateInputError, match="infinity"):
            i2_closed_n4(inf_point())

    def test_klein_identity(self):
        rng = np.random.default_rng(45)
        for _ in range(200):
            lam = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if min(abs(lam), abs(lam - 1)) < 0.1:
                continue
            assert abs(reference_i2_n4(lam) + 3.0 - 13.5 * klein_j(lam)) <= 1e-10


class TestLambdaVector:
    def test_ghz4_identity_order_is_harmonic(self):
        lam = lambda_vector(ghz4_roots())[0]
        # the normalizing map sends the fourth root to a point of the
        # harmonic orbit {2, 1/2, -1}
        np.testing.assert_allclose(lam.value, -1.0, atol=1e-12)
        rep2 = canonical_representative(point(2.0))
        assert chordal_distance(canonical_representative(lam), rep2) <= 1e-12

    def test_normalized_five_roots_pass_through(self):
        l1, l2 = 0.3 + 0.2j, -1.4 + 0.9j
        got = lambda_vector([point(0), point(1), inf_point(), point(l1), point(l2)])
        assert abs(got[0].value - l1) <= 1e-14
        assert abs(got[1].value - l2) <= 1e-14

    def test_ghz4_family_origin(self):
        state = ghz4_family(0.0)
        roots = find_roots(majorana_polynomial(state))
        lam = lambda_vector(roots)[0]
        orbit = anharmonic_orbit(lam)
        assert min(abs(p.value - 0.5) for p in orbit if not p.is_infinite) <= 1e-10

    def test_degenerate_leading_triple(self):
        with pytest.raises(ValueError):
            lambda_vector([point(0), point(0), point(1), point(2)])

    def test_explicit_ordering(self):
        # a caller orders the roots by permuting the list
        pts = [point(3), point(0), point(1), inf_point()]
        got = lambda_vector([pts[i] for i in [1, 2, 3, 0]])
        assert abs(got[0].value - 3.0) <= 1e-14

    def test_only_the_first_three_are_grouped(self):
        # 4e-13 links 0 and 8e-13 only when it is among the first three
        assert len(lambda_vector([point(z) for z in (0.0, 8e-13, 1.0, 4e-13)])) == 1
        with pytest.raises(ValueError, match="pairwise distinct"):
            lambda_vector([point(z) for z in (0.0, 4e-13, 1.0, 8e-13)])

    def test_three_roots_rejected(self):
        with pytest.raises(ValueError, match="four roots"):
            lambda_vector([point(0), point(1), inf_point()])

    def test_entries_are_cross_ratios(self):
        rng = np.random.default_rng(61)
        for n in range(4, 9):
            for _ in range(5):
                pts = random_points(rng, n - 1, min_sep=0.05) + [inf_point()]
                pts = [pts[i] for i in rng.permutation(n)]
                got = lambda_vector(pts)
                for z, lam in zip(pts[3:], got):
                    want = cross_ratio(z, pts[1], pts[0], pts[2])
                    if want.is_infinite:
                        assert lam.is_infinite
                        continue
                    assert abs(lam.value - want.value) <= 1e-14 * abs(want.value)


class TestSymmetrizedIk:
    def test_ghz4_quadratic_sum(self):
        np.testing.assert_allclose(symmetrized_ik(ghz4_roots(), 2), 42.0, atol=1e-10)

    def test_matches_closed_form(self):
        rng = np.random.default_rng(46)
        for _ in range(30):
            pts = random_points(rng, 4, min_sep=0.3)
            lam = lambda_vector(pts)[0]
            res = symmetrized_ik(pts, 2)
            want = i2_closed_n4(lam)
            assert abs(res / 4.0 - want) <= 1e-8 * max(1.0, abs(want))

    def test_five_roots_against_brute_force(self):
        l1, l2 = 0.21 - 0.43j, 1.7 + 0.8j
        pts = [point(0), point(1), inf_point(), point(l1), point(l2)]
        vals = [0, 1, None, l1, l2]
        for k in (2, 4):
            res = symmetrized_ik(pts, k)
            want = brute_force_power_sum(vals, k)
            assert abs(res - want) <= 1e-9 * max(1.0, abs(want))

    def test_six_roots_weighting_against_brute_force(self):
        rng = np.random.default_rng(47)
        vals = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(6)]
        pts = [point(z) for z in vals]
        res = symmetrized_ik(pts, 2)
        want = brute_force_power_sum(vals, 2)
        assert abs(res - want) <= 1e-9 * max(1.0, abs(want))

    def test_one_root_at_infinity_against_brute_force(self):
        rng = np.random.default_rng(52)
        for n in (4, 5, 6, 7):
            pts = random_points(rng, n - 1, min_sep=0.2) + [inf_point()]
            vals = [p.value for p in pts[:-1]] + [None]
            for k in (1, 2, 3, 4):
                res = symmetrized_ik(pts, k)
                want = brute_force_power_sum(vals, k)
                assert abs(res - want) <= 1e-12 * abs(want)

    def test_root_order_leaves_value_bit_identical(self):
        # every tuple is summed exactly in one fsum
        rng = np.random.default_rng(53)
        for n in (8, 16, 4, 5, 6, 7, 12, MAX_IK_N):
            pts = random_points(rng, n, min_sep=0.2)
            shuffled = [pts[i] for i in rng.permutation(n)]
            for k in (2, 4):
                assert symmetrized_ik(shuffled, k) == symmetrized_ik(pts, k)

    def test_linear_sum_at_the_largest_n(self):
        rng = np.random.default_rng(54)
        res = symmetrized_ik(random_points(rng, MAX_IK_N, min_sep=0.1), 1)
        want = math.factorial(MAX_IK_N) / 2.0
        assert abs(res - want) <= 1e-13 * want

    @pytest.mark.parametrize("n", [MAX_IK_N + 1, 1029])
    def test_beyond_the_largest_n_rejected_before_the_orbit_table(self, n, monkeypatch):
        calls = []
        plucker_factors = slocc._plucker_factors
        monkeypatch.setattr(
            slocc, "_plucker_factors", lambda m: calls.append(m) or plucker_factors(m)
        )
        pts = [point(np.exp(2j * np.pi * j / n)) for j in range(n)]
        with pytest.raises(ValueError, match=f"at most {MAX_IK_N} roots, got {n}"):
            symmetrized_ik(pts, 2)
        assert calls == []
        symmetrized_ik(pts[:MAX_IK_N], 2)  # the spy sees a call within the limit
        assert calls == [MAX_IK_N]

    def test_linear_sum_is_constant(self):
        # the six orbit images of any cross ratio sum to 3, so the k=1
        # permutation sum collapses to n!/2 regardless of the roots
        rng = np.random.default_rng(50)
        for n in (4, 5, 6):
            pts = random_points(rng, n, min_sep=0.2)
            res = symmetrized_ik(pts, 1)
            want = math.factorial(n) / 2.0
            assert abs(res - want) <= 1e-9 * want

    def test_close_simple_pairs_match_the_closed_form(self):
        # two pairs 1e-9 apart are four simple roots: lambda is about -1e18,
        # and every term of the sum is a float
        pts = [point(z) for z in (0, 1e-9, 1, 1 + 1e-9)]
        lam = lambda_vector(pts)[0]
        assert abs(lam.value + 1e18) <= 1e-6 * 1e18
        want = 4.0 * i2_closed_n4(lam)
        assert abs(symmetrized_ik(pts, 2) - want) <= 1e-12 * abs(want)

    def test_sum_beyond_floats_diverges(self):
        # four simple roots at a tolerance below their spacing, 1e-100 apart
        # in two pairs: lambda is about 1e200, and its square is beyond floats
        summary = slocc_summary([point(0), point(1e-100), inf_point(), point(1e100)], 1e-300)
        assert summary.degeneracy == (1, 1, 1, 1) and summary.divergent
        assert abs(summary.lambda_vector[0].value) == pytest.approx(1e200)
        assert summary.klein_j is None and summary.symmetrized == {}

    def test_repeated_roots_diverge(self):
        pts = [point(0), point(0), point(1), inf_point()]
        with pytest.raises(DivergentSumError):
            symmetrized_ik(pts, 2)

    def test_too_few_distinct(self):
        with pytest.raises(ValueError):
            symmetrized_ik([point(0), point(0), point(1), point(1)], 2)

    # 2.5: a fractional power of each term is a principal branch, no power sum
    @pytest.mark.parametrize("k", [0, -1, 2.5])
    def test_non_positive_power_rejected(self, k):
        with pytest.raises(ValueError, match="positive integer"):
            symmetrized_ik(ghz4_roots(), k)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_numpy_integer_power_gives_the_same_bits(self, k):
        roots = [point(z) for z in (0, 1, 2, 3, 0.5j)]
        want = symmetrized_ik(roots, k)
        got = symmetrized_ik(roots, np.int64(k))
        assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())

    def test_three_roots_rejected(self):
        with pytest.raises(ValueError, match="four roots"):
            symmetrized_ik([point(0), point(1), inf_point()], 2)

    def test_triple_root_has_no_valid_ordering(self):
        with pytest.raises(ValueError):
            symmetrized_ik([point(0), point(0), point(0), point(1)], 2)

    @pytest.mark.parametrize("k", [2, 4])
    def test_near_coincident_chain(self, k):
        # the chain is one triple root: two groups leave no triple, and with
        # a third group it is a repeated root, as in the summary
        with pytest.raises(ValueError, match="three distinct"):
            symmetrized_ik([point(z) for z in CHAIN], k)
        with pytest.raises(DivergentSumError):
            symmetrized_ik([point(z) for z in CHAIN + [2.0]], k)

    def test_near_coincident_chain_summary(self):
        # the summary groups at its tolerance: a triple root and 1, no triple
        summary = slocc_summary([point(z) for z in CHAIN])
        assert summary.degeneracy == (3, 1)
        assert summary.lambda_vector is None and summary.klein_j is None
        assert summary.symmetrized == {} and not summary.divergent


def bits(part):
    """The bits of a real array, an exact zero read as +0."""
    return (part + 0.0).view(np.uint64)


class TestPowerSumDifferences:
    @seed(77)
    @settings(max_examples=100, deadline=None)
    @given(
        pairs=st.lists(st.tuples(signed_zero_complex, signed_zero_complex), min_size=1, max_size=9),
        data=st.data(),
    )
    def test_antisymmetric_and_permuted_with_the_pairs(self, pairs, data):
        pairs = np.array(pairs, dtype=complex)
        parts = slocc._differences(pairs)
        for part in parts:
            assert np.array_equal(bits(part), bits(-part.T))
        perm = data.draw(st.permutations(range(len(pairs))))
        for part, moved in zip(parts, slocc._differences(pairs[perm])):
            assert np.array_equal(moved.view(np.uint64), part[np.ix_(perm, perm)].view(np.uint64))


@st.composite
def spread_roots(draw):
    """4..8 roots at least 0.15 apart: distinct points of the grid (Z + iZ) / 4
    in [-1.5, 1.5]^2, some moved off it by up to 0.05, one maybe at infinity."""
    cells = st.tuples(st.integers(-6, 6), st.integers(-6, 6))
    jitter = st.just(0.0) | st.floats(-0.05, 0.05)
    pts = [
        point(complex(x, y) / 4 + complex(draw(jitter), draw(jitter)))
        for x, y in draw(st.lists(cells, min_size=4, max_size=8, unique=True))
    ]
    if draw(st.booleans()):
        pts[draw(st.integers(0, len(pts) - 1))] = inf_point()
    return pts


class TestOneTermPerKleinFourOrbit:
    @seed(78)
    @settings(max_examples=60, deadline=None)
    @given(pts=spread_roots())
    @example(pts=[point(z) for z in (0, 1, -1, 2, 0.5, -3)])
    @example(pts=[point(z) for z in (0, 1j, 1, 2 + 1j, -1)] + [inf_point()])
    @example(pts=ghz4_roots())
    @example(pts=[point(z) for z in (0, 1e-6, 1, 1 + 1e-6, 2j)])  # cross ratios near 1e12
    @example(pts=[point(complex(x, y) / 4) for x in range(-2, 2) for y in range(-1, 2)])
    @example(pts=[point(0.3 * k + 0.1j * k * k - 0.05j) for k in range(-8, 8)] + [inf_point()])
    def test_equals_the_sum_over_every_tuple(self, pts):
        # == on floats compares bits, save the sign of a zero
        want = reference_power_sums(pts, (1, 2, 3, 4))
        for k, value in want.items():
            assert symmetrized_ik(pts, k) == value
        summary = {k: want[k] for k in SUMMARY_POWERS} if len(pts) <= MAX_POWER_SUM_N else {}
        assert slocc_summary(pts).symmetrized == summary


def as_complex(re, im):
    """The complex array with these parts, set apart as the program sets them."""
    out = np.empty(re.shape, complex)
    out.real, out.imag = re, im
    return out


class TestPluckerProducts:
    @pytest.mark.parametrize(
        "values",
        [
            [0, 1e-9, 1, 2 + 1j, -1.5 + 0.5j, None],
            [None, 0.3 - 2j, 0.3 - 2j + 1e-9, 1j, -1, 4 + 3j, 1e3, -2e-3j],
            [1e-9j, 0, -0.7 + 0.2j, 1.1 - 0.9j, None, 5],
        ],
    )
    def test_every_tuple_is_minus_one_product_over_another(self, values):
        # x = d_ab d_cd, y = d_ac d_db and z = d_ad d_bc of each subset
        # a < b < c < d: the term num / den of each of its 24 ordered tuples
        # has the bits of one of the six -u/v, save the sign of a zero part
        # (which == ignores), and each -u/v is hit four times
        pts = [inf_point() if v is None else point(v) for v in values]
        det_re, det_im = slocc._differences(projective_pairs(pts))
        subset = np.array(list(itertools.combinations(range(len(pts)), 4))).T

        def product(i, j, k, m):
            return as_complex(*slocc._times(det_re[i, j], det_im[i, j], det_re[k, m], det_im[k, m]))

        a, b, c, d = subset
        xyz = np.array([product(a, b, c, d), product(a, c, d, b), product(a, d, b, c)])
        with np.errstate(all="raise"):
            six = -xyz[[0, 0, 1, 1, 2, 2]] / xyz[[1, 2, 0, 2, 0, 1]]
            terms = np.array(
                [
                    product(i4, i1, i2, i3) / product(i4, i3, i2, i1)
                    for i1, i2, i3, i4 in itertools.permutations(subset)
                ]
            )
        hits = terms[:, None] == six[None]
        assert (hits.sum(axis=1) == 1).all()
        assert (hits.sum(axis=0) == 4).all()


def summary_cases():
    """Root sets at n = 4..8: random, with a root at infinity, the chain plus
    random roots, and a repeated root at the front and at the back."""
    rng = np.random.default_rng(72)
    for n in range(4, 9):
        plain = random_points(rng, n, min_sep=0.05)
        yield plain
        yield plain[:-1] + [inf_point()]
        yield [point(z) for z in CHAIN] + plain[4:]
        yield [plain[0]] + plain[:-1]
        yield plain[:-1] + [plain[0]]


class TestSummaryMatchesPublicFunctions:
    def test_power_sums_are_bit_identical(self):
        # no two roots lie between 1e-12 and the clustering tolerance, so the
        # summary and the 1e-12 functions group them alike
        diverged = empty = 0
        for pts in summary_cases():
            summary = slocc_summary(pts)
            try:
                results = {k: symmetrized_ik(pts, k) for k in (2, 4)}
            except DivergentSumError:
                diverged += 1
                assert summary.divergent and summary.symmetrized == {}
                continue
            except ValueError:  # the n = 4 chain: two groups
                empty += 1
                assert not summary.divergent and summary.symmetrized == {}
                continue
            assert not summary.divergent
            assert summary.symmetrized == results
        assert 0 < diverged and 0 < empty

    def test_lambda_is_lambda_vector_when_the_first_three_are_distinct(self):
        compared = 0
        for pts in summary_cases():
            try:
                want = lambda_vector(pts)
            except ValueError:  # the first three roots are not pairwise distinct
                continue
            got = slocc_summary(pts).lambda_vector
            assert [(p.a, p.b) for p in got] == [(p.a, p.b) for p in want]
            compared += 1
        assert 0 < compared


def widened_cases():
    """Root sets at n = 9..20, past the power sums, whose leading triple is not
    the first three roots: the first three or five roots coincide, or the
    1e-12 chain leads."""
    rng = np.random.default_rng(73)
    for n in (9, 12, 20):
        plain = random_points(rng, n, min_sep=0.05)
        for m in (3, 5):
            yield [plain[0]] * m + plain[m:]
            yield [plain[-1]] * m + plain[: n - m]
        yield [point(z) for z in CHAIN] + plain[4:]
        yield [point(z) for z in CHAIN[:3]] * 2 + plain[6:]
        yield [inf_point()] * 4 + plain[4:]


def group_ordering(pts):
    """The first member of each of the first three reference single-linkage
    groups at the default tolerance, then the rest; None below three groups."""
    groups = reference_linkage(pts, DEFAULT_CLUSTER_TOL)
    if len(groups) < 3:
        return None
    triple = [members[0] for members in groups[:3]]
    return triple + [i for i in range(len(pts)) if i not in triple]


class TestLeadingTriple:
    def test_lambda_is_lambda_vector_under_the_greedy_ordering(self):
        # the triple is the first member of each of the first three groups
        widened = 0
        for pts in itertools.chain(summary_cases(), widened_cases()):
            ordering = group_ordering(pts)
            got = slocc_summary(pts).lambda_vector
            if ordering is None:
                assert got is None
                continue
            want = lambda_vector([pts[i] for i in ordering])
            assert [(p.a, p.b) for p in got] == [(p.a, p.b) for p in want]
            widened += ordering[:3] != [0, 1, 2] and len(pts) > MAX_POWER_SUM_N
        assert widened >= 15

    def test_no_lambda_below_three_distinct_roots(self):
        # 4e-13 is within the threshold of 0: two distinct roots, ten in all
        pts = [point(z) for z in CHAIN[:2]] * 3 + [inf_point()] * 4
        assert group_ordering(pts) is None
        assert slocc_summary(pts).lambda_vector is None

    def test_no_square_array_past_the_power_sums(self, monkeypatch):
        widths, linkages = [], []

        def spy(rows, cols):
            widths.append((len(rows), len(cols)))
            return projective_differences(rows, cols)

        def linkage_spy(pairs, tol):
            linkages.append(tol)
            return single_linkage(pairs, tol)

        monkeypatch.setattr(slocc, "projective_differences", spy)
        monkeypatch.setattr(slocc, "single_linkage", linkage_spy)
        for pts in widened_cases():
            widths.clear()
            linkages.clear()
            summary = slocc_summary(pts)
            assert summary.lambda_vector is not None and summary.symmetrized == {}
            # one (n, 3) array, one grouping: no scan, no rebuild
            assert widths == [(len(pts), 3)]
            assert linkages == [DEFAULT_CLUSTER_TOL]

    def test_chordal_distance_is_the_array_entry(self):
        rng = np.random.default_rng(74)
        pts = random_points(rng, 12) + [inf_point(), point(0), point(4e-13), point(1e300)]
        pts += [point(p.value + 5e-13) for p in pts[:4]]
        _, chordal = projective_differences(projective_pairs(pts), projective_pairs(pts))
        for (i, p), (j, q) in itertools.product(enumerate(pts), repeat=2):
            assert chordal_distance(p, q) == chordal[i, j]


#: Offsets of a near copy from an earlier root: exact, inside the 1e-12
#: coincidence threshold, and inside and around the 1e-7 clustering tolerance.
NEAR_OFFSETS = [0.0, 4e-13, 1e-9, 4.5e-8, 9e-8, 2e-7]


@st.composite
def clustered_roots(draw):
    """4..10 roots, each a fresh point (infinity among them) or a near copy
    of an earlier root, so groups, chains and exact repeats all occur."""
    coords = st.floats(-3, 3)
    pts = []
    for i in range(draw(st.integers(4, 10))):
        if i and draw(st.booleans()):
            base = pts[draw(st.integers(0, i - 1))]
            dz = draw(st.sampled_from(NEAR_OFFSETS)) * draw(st.sampled_from([1, -1, 1j]))
            pts.append(base if base.is_infinite else point(base.value + dz))
        elif draw(st.integers(0, 7)) == 0:
            pts.append(inf_point())
        else:
            pts.append(point(complex(draw(coords), draw(coords))))
    return pts


class TestOneRule:
    @seed(75)
    @settings(max_examples=200, deadline=None)
    @given(pts=clustered_roots())
    def test_first_member_of_each_group_stands_for_it(self, pts):
        # the summary decides "same root" by its clustering alone: replacing
        # every root by the first member of its group changes none of it
        groups = reference_linkage(pts, DEFAULT_CLUSTER_TOL)
        first = {i: members[0] for members in groups for i in members}
        got = slocc_summary(pts)
        want = slocc_summary([pts[first[i]] for i in range(len(pts))])
        assert got.degeneracy == want.degeneracy
        for name in ("lambda_vector", "klein_j", "canonical_lambda"):
            assert (getattr(got, name) is None) == (getattr(want, name) is None)
        assert bool(got.symmetrized) == bool(want.symmetrized)
        assert got.divergent == want.divergent
        if got.lambda_vector is None:
            return
        triple = [members[0] for members in groups[:3]]
        alone = {members[0] for members in groups if len(members) == 1}
        others = [i for i in range(len(pts)) if i not in triple]
        for i, p, q in zip(others, got.lambda_vector, want.lambda_vector):
            if i in alone:
                assert (p.a, p.b) == (q.a, q.b)


@st.composite
def chained_roots(draw):
    """4..8 roots, each a fresh point (infinity among them) or a near copy,
    10^U(-14, -10) chordal away, of an earlier root; a copy of a copy
    extends a chain."""
    coords = st.floats(-3, 3)
    pts = []
    for i in range(draw(st.integers(4, 8))):
        if i and draw(st.booleans()):
            base = pts[draw(st.integers(0, i - 1))]
            d = 10.0 ** draw(st.floats(-14, -10)) * draw(st.sampled_from([1, -1, 1j, -1j]))
            if base.is_infinite:
                pts.append(RiemannPoint(1.0, d / 2))
            else:
                pts.append(point(base.value + d * (1 + abs(base.value) ** 2) / 2))
        elif draw(st.integers(0, 7)) == 0:
            pts.append(inf_point())
        else:
            pts.append(point(complex(draw(coords), draw(coords))))
    return pts


class TestStandAloneFunctionsFollowTheSummary:
    @seed(76)
    @settings(max_examples=200, deadline=None)
    @given(pts=chained_roots())
    @example(pts=[point(z) for z in CHAIN + [2.0]])
    def test_one_grouping_at_the_coincidence_tolerance(self, pts):
        summary = slocc_summary(pts, COINCIDENCE_TOL)
        try:
            sums = {k: symmetrized_ik(pts, k) for k in SUMMARY_POWERS}
        except DivergentSumError:
            assert summary.divergent and summary.symmetrized == {}
        except ValueError:
            assert not summary.divergent and summary.symmetrized == {}
        else:
            assert not summary.divergent and summary.symmetrized == sums
        groups = single_linkage(projective_pairs(pts[:4]), COINCIDENCE_TOL).max() + 1
        try:
            cross_ratio(*pts[:4])
        except ValueError:
            assert groups < 3
        else:
            assert groups >= 3


class TestDegeneracyClass:
    def test_ghz3(self):
        pts = [point(np.exp(1j * np.pi / 3)), point(-1), point(np.exp(-1j * np.pi / 3))]
        assert degeneracy_class(pts, 1e-7) == (1, 1, 1)

    def test_w3(self):
        assert degeneracy_class([point(0), inf_point(), inf_point()], 1e-7) == (2, 1)

    def test_separable(self):
        alpha = point(0.3 + 0.4j)
        assert degeneracy_class([alpha, alpha, alpha], 1e-7) == (3,)


class TestCanonicalRepresentative:
    def test_harmonic(self):
        got = canonical_representative(point(2.0))
        np.testing.assert_allclose(got.value, -1.0, atol=1e-12)

    def test_orbit_equivalent_inputs_agree(self):
        a = canonical_representative(point(0.5))
        b = canonical_representative(point(2.0))
        assert chordal_distance(a, b) == 0.0

    def test_equianharmonic(self):
        got = canonical_representative(point(OMEGA))
        np.testing.assert_allclose(got.value, OMEGA.conjugate(), atol=1e-12)

    def test_determinism_over_random_orbits(self):
        rng = np.random.default_rng(48)
        for _ in range(30):
            lam = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if min(abs(lam), abs(lam - 1)) < 0.05:
                continue
            reps = {
                (
                    round(canonical_representative(m).value.real, 9),
                    round(canonical_representative(m).value.imag, 9),
                )
                for m in anharmonic_orbit(lam)
                if not m.is_infinite
            }
            assert len(reps) == 1


class TestMobiusInvariance:
    def random_mobius(self, rng):
        while True:
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
            if abs(det) > 0.3:
                return MobiusTransform(m)

    def test_invariants_preserved(self):
        rng = np.random.default_rng(49)
        trials = 0
        while trials < 100:
            n = int(rng.integers(4, 7))
            pts = random_points(rng, n, min_sep=0.2)
            mob = self.random_mobius(rng)
            moved = [apply_mobius(mob, p) for p in pts]
            if any(
                chordal_distance(a, b) < 1e-3
                for i, a in enumerate(moved)
                for b in moved[:i]
            ):
                continue
            trials += 1
            lam0 = lambda_vector(pts)[0]
            lam1 = lambda_vector(moved)[0]
            cr0 = cross_ratio(*pts[:4])
            cr1 = cross_ratio(*moved[:4])
            assert chordal_distance(cr0, cr1) <= 1e-9
            if not (lam0.is_infinite or lam1.is_infinite):
                j0, j1 = klein_j(lam0), klein_j(lam1)
                assert abs(j0 - j1) <= 1e-9 * max(1.0, abs(j0))
            for k in (2, 4):
                v0 = symmetrized_ik(pts, k)
                v1 = symmetrized_ik(moved, k)
                assert abs(v0 - v1) <= 1e-9 * max(1.0, abs(v0))
            assert degeneracy_class(pts, 1e-7) == degeneracy_class(moved, 1e-7)
