from math import comb

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from helpers import assert_multisets_close, inf_point, point, random_points, roots_of
from stellarinv import (
    MajoranaPolynomial,
    RiemannPoint,
    chordal_distance,
    from_dicke,
    from_sphere,
    majorana_polynomial,
    state_from_polynomial,
    state_from_roots,
    to_sphere,
)
from stellarinv.states import binomial_factors

SQ2 = np.sqrt(2.0)


class TestFromDicke:
    def test_ghz3(self):
        st3 = from_dicke(3, [1 / SQ2, 0, 0, 1 / SQ2])
        assert st3.n == 3
        np.testing.assert_allclose(np.linalg.norm(st3.amplitudes), 1.0, atol=1e-14)

    def test_basis_state(self):
        st2 = from_dicke(2, [1, 0, 0])
        np.testing.assert_allclose(st2.amplitudes, [1, 0, 0], atol=1e-15)

    def test_unnormalized_input_is_normalized(self):
        st3 = from_dicke(3, [0, 5, 0, 0])
        np.testing.assert_allclose(st3.amplitudes, [0, 1, 0, 0], atol=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            from_dicke(3, [1, 0, 0])

    def test_all_zero(self):
        with pytest.raises(ValueError):
            from_dicke(2, [0, 0, 0])

    def test_no_qubits_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            from_dicke(0, [1])

    def test_overflowing_norm_is_rescaled(self):
        st = from_dicke(2, [1e308, 1e308j, 0])
        np.testing.assert_array_equal(st.amplitudes, from_dicke(2, [1, 1j, 0]).amplitudes)

    @pytest.mark.parametrize("scale", [1e-13, 1e-200, 1e-310, 5e-324])
    def test_tiny_norm_is_rescaled(self, scale):
        st = from_dicke(2, [scale, scale * 1j, 0])
        np.testing.assert_array_equal(st.amplitudes, from_dicke(2, [1, 1j, 0]).amplitudes)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            from_dicke(2, [1, bad, 0])

    def test_amplitudes_read_only(self):
        st3 = from_dicke(3, [1, 0, 0, 1])
        with pytest.raises(ValueError):
            st3.amplitudes[0] = 5.0

    def test_spin_is_half_the_qubit_count(self):
        assert from_dicke(3, [1, 0, 0, 1]).spin == 1.5


class TestRiemannPoint:
    def test_complex_is_the_finite_value(self):
        assert complex(point(0.5 - 2j)) == 0.5 - 2j
        with pytest.raises(ValueError, match="infinity"):
            complex(inf_point())

    def test_repr(self):
        assert repr(point(0.5)) == "RiemannPoint((0.5+0j))"
        assert repr(inf_point()) == "RiemannPoint(inf)"


class TestMajoranaPolynomial:
    def test_zero_polynomial_has_degree_zero(self):
        assert MajoranaPolynomial([0, 0, 0]).degree == 0

    def test_ghz3_coefficients(self):
        poly = majorana_polynomial(from_dicke(3, [1, 0, 0, 1]))
        # proportional to 1 + alpha^3
        c = poly.coefficients / poly.coefficients[0]
        np.testing.assert_allclose(c, [1, 0, 0, 1], atol=1e-15)

    def test_w_coefficients(self):
        poly = majorana_polynomial(from_dicke(3, [0, 1, 0, 0]))
        np.testing.assert_allclose(poly.coefficients, [0, np.sqrt(3), 0, 0], atol=1e-15)
        assert poly.degree == 1
        assert poly.n - poly.degree == 2

    def test_lowest_weight_state_is_constant(self):
        poly = majorana_polynomial(from_dicke(4, [1, 0, 0, 0, 0]))
        assert poly.degree == 0
        assert poly.n - poly.degree == 4

    @pytest.mark.parametrize("coeffs", [[1], [[1, 0], [0, 1]]], ids=["one", "two-dimensional"])
    def test_coefficient_shape_checked(self, coeffs):
        with pytest.raises(ValueError, match="two coefficients"):
            MajoranaPolynomial(np.asarray(coeffs, dtype=complex))

    def test_binomial_factors_cached_read_only(self):
        f = binomial_factors(70)
        assert f is binomial_factors(70)
        assert np.array_equal(f, np.sqrt([float(comb(70, k)) for k in range(71)]))
        with pytest.raises(ValueError):
            f[0] = 2.0

    def test_polynomial_state_round_trip(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 5, 8):
            amps = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
            state = from_dicke(n, amps)
            back = state_from_polynomial(majorana_polynomial(state))
            # equal up to one global complex factor; both are normalized
            ratio = back.amplitudes @ state.amplitudes.conj()
            np.testing.assert_allclose(abs(ratio), 1.0, atol=1e-12)


@st.composite
def root_multisets(draw):
    """Up to 64 points drawn from a pool of up to 16, so that roots repeat;
    the pool may hold the point at infinity (None)."""
    finite = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)
    pool = draw(st.lists(st.one_of(st.none(), finite), min_size=1, max_size=16))
    picks = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=64))
    return [inf_point() if z is None else point(z) for z in picks]


def polyfromroots_state(points):
    """state_from_roots through numpy.polynomial's own product tree."""
    finite = [p.value for p in points if not p.is_infinite]
    coeffs = np.zeros(len(points) + 1, dtype=complex)
    coeffs[: len(finite) + 1] = np.polynomial.polynomial.polyfromroots(finite)
    return state_from_polynomial(MajoranaPolynomial(coeffs))


class TestStateFromRoots:
    @settings(max_examples=80, deadline=None)
    @given(points=root_multisets())
    def test_matches_polyfromroots_bit_for_bit(self, points):
        assert np.array_equal(
            state_from_roots(points).amplitudes, polyfromroots_state(points).amplitudes
        )

    @pytest.mark.parametrize("n, z", [(200, 1000), (700, 2)])
    def test_product_beyond_floats_raises(self, n, z):
        with pytest.raises(OverflowError, match=f"these {n} points overflows"):
            state_from_roots([point(z)] * n)

    def test_cube_roots_give_ghz3(self):
        pts = [point(np.exp(1j * np.pi / 3)), point(-1), point(np.exp(-1j * np.pi / 3))]
        state = state_from_roots(pts)
        target = from_dicke(3, [1, 0, 0, 1])
        overlap = abs(state.amplitudes @ target.amplitudes.conj())
        np.testing.assert_allclose(overlap, 1.0, atol=1e-12)

    def test_zero_and_two_infinities_give_w(self):
        state = state_from_roots([point(0), inf_point(), inf_point()])
        np.testing.assert_allclose(np.abs(state.amplitudes), [0, 1, 0, 0], atol=1e-14)

    def test_all_zero_roots_give_top_state(self):
        state = state_from_roots([point(0)] * 4)
        np.testing.assert_allclose(np.abs(state.amplitudes), [0, 0, 0, 0, 1], atol=1e-14)

    def test_empty_multiset(self):
        with pytest.raises(ValueError):
            state_from_roots([])


class TestSphereMaps:
    def test_zero_is_north_pole(self):
        v = to_sphere(point(0))
        assert (v.x, v.y, v.z) == (0.0, 0.0, 1.0)

    def test_infinity_is_south_pole(self):
        v = to_sphere(inf_point())
        assert (v.x, v.y, v.z) == (0.0, 0.0, -1.0)

    def test_one_is_equatorial(self):
        v = to_sphere(point(1))
        np.testing.assert_allclose([v.x, v.y, v.z], [1, 0, 0], atol=1e-15)

    @seed(2)
    @settings(max_examples=100, deadline=None)
    @given(
        re=st.floats(-10, 10, allow_nan=False),
        im=st.floats(-10, 10, allow_nan=False),
    )
    def test_forward_inverse_round_trip(self, re, im):
        alpha = complex(re, im)
        back = from_sphere(to_sphere(point(alpha)))
        assert not back.is_infinite
        assert abs(back.value - alpha) <= 1e-12

    def test_round_trip_large_modulus(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            alpha = rng.uniform(1, 1e6) * np.exp(2j * np.pi * rng.uniform())
            back = from_sphere(to_sphere(point(alpha)))
            assert abs(back.value - alpha) <= 1e-9 * abs(alpha)


class TestChordalDistance:
    def test_antipodal(self):
        assert chordal_distance(point(0), inf_point()) == 2.0

    def test_identical(self):
        assert chordal_distance(point(0), point(0)) == 0.0

    def test_one_and_i(self):
        np.testing.assert_allclose(chordal_distance(point(1), point(1j)), SQ2, atol=1e-15)

    def test_projective_scaling(self):
        p = RiemannPoint(2 + 1j, 3 - 4j)
        q = RiemannPoint((2 + 1j) * (0.3 - 7j), (3 - 4j) * (0.3 - 7j))
        assert chordal_distance(p, q) <= 1e-15

    def test_antipode_map(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            p = point(complex(rng.normal(), rng.normal()))
            assert abs(chordal_distance(p, p.antipode()) - 2.0) <= 1e-12


class TestRoundTrip:
    def test_roots_to_state_to_roots(self):
        rng = np.random.default_rng(5)
        for n in range(1, 11):
            for _ in range(5):
                pts = random_points(rng, n, min_sep=1e-3)
                back = roots_of(state_from_roots(pts))
                assert_multisets_close(pts, back, 1e-8)

    def test_round_trip_with_infinities(self):
        rng = np.random.default_rng(6)
        pts = random_points(rng, 4, min_sep=0.1) + [inf_point(), inf_point()]
        back = roots_of(state_from_roots(pts))
        assert_multisets_close(pts, back, 1e-8)

    @seed(7)
    @settings(max_examples=40, deadline=None)
    @given(phi=st.floats(-10, 10, allow_nan=False))
    def test_global_phase_leaves_roots_unchanged(self, phi):
        rng = np.random.default_rng(8)
        amps = rng.normal(size=5) + 1j * rng.normal(size=5)
        r1 = roots_of(from_dicke(4, amps))
        r2 = roots_of(from_dicke(4, np.exp(1j * phi) * amps))
        assert_multisets_close(r1, r2, 1e-9)


def test_invalid_projective_pair():
    with pytest.raises(ValueError):
        RiemannPoint(0, 0)


def test_infinity_has_no_finite_value():
    with pytest.raises(ValueError, match="no finite value"):
        RiemannPoint.infinity().value


@pytest.mark.parametrize("a, b", [(1, float("nan")), (float("nan"), 1)])
def test_nan_coordinate_rejected(a, b):
    with pytest.raises(ValueError):
        RiemannPoint(a, b)
