import decimal
import time
from fractions import Fraction

import numpy as np
import pytest

from helpers import random_points, random_state, roots_of
from stellarinv import lu
from stellarinv import (
    DegenerateInputError,
    SphereVector,
    bloch_radius2,
    concurrence2,
    dicke_expand,
    from_dicke,
    gram,
    lu_invariants3,
    oracle_lu_invariants3,
    rotation_from_h,
    slocc_summary,
    slui_coefficients,
    symmetric_coefficients,
    to_sphere,
)

N_POLE = SphereVector(0.0, 0.0, 1.0)
S_POLE = SphereVector(0.0, 0.0, -1.0)
X_HAT = SphereVector(1.0, 0.0, 0.0)


def equatorial_triangle():
    return [
        SphereVector(np.cos(t), np.sin(t), 0.0)
        for t in (0.0, 2 * np.pi / 3, 4 * np.pi / 3)
    ]


EPS = np.finfo(float).eps


def unit_vectors(rng, n):
    return unit(rng.normal(size=(n, 3)))


def lattice_vectors(rng, n):
    """Fibonacci lattice of n sphere points, each jittered by about 0.1 / sqrt(n)."""
    z = 1.0 - (2 * np.arange(n) + 1) / n
    phi = np.arange(n) * np.pi * (3.0 - np.sqrt(5.0))
    r = np.sqrt(1.0 - z * z)
    vecs = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    return unit(vecs + rng.normal(scale=0.1 / np.sqrt(n), size=(n, 3)))


def unit(vecs):
    return vecs / np.linalg.norm(vecs, axis=1)[:, None]


def gram_of(vecs):
    return gram([SphereVector(*v) for v in vecs])


def expand(g, number):
    """prod_{i<j} (x - g_ij) in the arithmetic of ``number``, highest power first."""
    coeffs = [number(1)]
    for v in g[np.triu_indices(g.shape[0], 1)]:
        v = number(float(v))
        coeffs = [a - v * b for a, b in zip(coeffs + [number(0)], [number(0)] + coeffs)]
    return np.array([float(c) for c in coeffs])


def normwise(got, ref):
    return np.abs(got - ref).max() / np.abs(ref).max()


class TestGram:
    def test_ghz_triangle(self):
        g = gram(equatorial_triangle())
        off = g[~np.eye(3, dtype=bool)]
        np.testing.assert_allclose(off, -0.5, atol=1e-14)

    def test_w_poles(self):
        g = gram([N_POLE, S_POLE, S_POLE])
        assert (g[0, 1], g[0, 2], g[1, 2]) == (-1.0, -1.0, 1.0)

    def test_coincident(self):
        g = gram([X_HAT, X_HAT])
        np.testing.assert_allclose(g, np.ones((2, 2)), atol=0)

    def test_empty_and_single_point(self):
        assert gram([]).shape == (0, 0)
        assert np.array_equal(gram([X_HAT]), [[1.0]])

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            gram([SphereVector(0.5, 0.0, 0.0)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_vector_rejected(self, bad):
        with pytest.raises(ValueError, match="unit vectors"):
            gram([SphereVector(bad, 0.0, 0.0)])

    def test_rotation_invariance(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            pts = [to_sphere(p) for p in random_points(rng, n, min_sep=1e-2)]
            rot = rotation_from_h(rng.normal(size=3))
            rotated = [SphereVector(*(rot @ np.array(p))) for p in pts]
            np.testing.assert_allclose(gram(rotated), gram(pts), atol=1e-10)

    def test_inversion_invariance(self):
        # time reversal flips every vector; all inner products are untouched
        rng = np.random.default_rng(32)
        pts = [to_sphere(p) for p in random_points(rng, 5)]
        flipped = [SphereVector(-p.x, -p.y, -p.z) for p in pts]
        assert np.array_equal(gram(flipped), gram(pts))


class TestTwoQubitFormulas:
    def test_concurrence_endpoints(self):
        assert concurrence2(-1.0) == 1.0
        assert concurrence2(1.0) == 0.0

    def test_concurrence_orthogonal_points(self):
        np.testing.assert_allclose(concurrence2(0.0), 1.0 / 3.0, atol=1e-15)

    def test_radius_endpoints(self):
        assert bloch_radius2(1.0) == 1.0
        assert bloch_radius2(-1.0) == 0.0

    def test_radius_orthogonal_points(self):
        np.testing.assert_allclose(bloch_radius2(0.0), 8.0 / 9.0, atol=1e-15)

    def test_out_of_range(self):
        for bad in (-1.1, 1.1):
            with pytest.raises(ValueError):
                concurrence2(bad)
            with pytest.raises(ValueError):
                bloch_radius2(bad)

    def test_radius_concurrence_identity(self):
        # C^2 + r^2 = 1 for pure two-qubit states
        for v in np.linspace(-1, 1, 41):
            np.testing.assert_allclose(
                concurrence2(v) ** 2 + bloch_radius2(v), 1.0, atol=1e-12
            )


class TestSymmetricCoefficients:
    def test_ghz_values(self):
        c0, c1, c2 = symmetric_coefficients(gram(equatorial_triangle()))
        np.testing.assert_allclose([c0, c1, c2], [1 / 8, 3 / 4, 3 / 2], atol=1e-14)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(30)
        pts = [to_sphere(p) for p in random_points(rng, 3)]
        base = symmetric_coefficients(gram(pts))
        for perm in ((1, 0, 2), (2, 1, 0), (1, 2, 0)):
            shuffled = [pts[i] for i in perm]
            np.testing.assert_allclose(
                symmetric_coefficients(gram(shuffled)), base, atol=1e-13
            )


    def test_non_3x3_matrix_rejected(self):
        with pytest.raises(ValueError, match="3x3"):
            symmetric_coefficients(np.eye(2))


class TestThreeQubitInvariants:
    def test_ghz_row(self):
        inv = lu_invariants3(gram(equatorial_triangle()))
        np.testing.assert_allclose(
            [inv.i2, inv.i5, inv.i6], [0.0, 0.25, 1.0], atol=1e-12
        )

    def test_w_row(self):
        inv = lu_invariants3(gram([N_POLE, S_POLE, S_POLE]))
        np.testing.assert_allclose(
            [inv.i2, inv.i5, inv.i6], [1 / 9, 2 / 9, 0.0], atol=1e-12
        )

    def test_orthogonal_row(self):
        # v = (-1, 0, 0): an antipodal pair plus an equatorial point
        inv = lu_invariants3(gram([N_POLE, S_POLE, X_HAT]))
        np.testing.assert_allclose(
            [inv.i2, inv.i5, inv.i6], [4 / 9, 17 / 36, 1 / 3], atol=1e-12
        )

    def test_symmetric_sector_equalities(self):
        rng = np.random.default_rng(33)
        pts = [to_sphere(p) for p in random_points(rng, 3)]
        inv = lu_invariants3(gram(pts))
        assert inv.i1 == 1.0
        assert inv.i2 == inv.i3 == inv.i4

    def test_singular_matrix_rejected(self):
        bad = -np.ones((3, 3))
        np.fill_diagonal(bad, 1.0)
        with pytest.raises(DegenerateInputError):
            lu_invariants3(bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrix_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            lu_invariants3(np.full((3, 3), bad))

    def test_ranges_over_random_states(self):
        rng = np.random.default_rng(34)
        for _ in range(100):
            pts = [to_sphere(p) for p in random_points(rng, 3, min_sep=1e-2)]
            inv = lu_invariants3(gram(pts))
            assert -1e-12 <= inv.i2 <= 1 + 1e-12
            assert -1e-12 <= inv.i6 <= 1 + 1e-12

    def test_oracle_equivalence(self):
        rng = np.random.default_rng(35)
        for _ in range(100):
            state = random_state(rng, 3)
            pts = [to_sphere(p) for p in roots_of(state)]
            stellar = lu_invariants3(gram(pts))
            dense = oracle_lu_invariants3(dicke_expand(state))
            np.testing.assert_allclose(stellar[1:], dense[1:], rtol=0, atol=1e-8)


class TestSluiCoefficients:
    def test_single_antipodal_pair(self):
        g = np.array([[1.0, -1.0], [-1.0, 1.0]])
        np.testing.assert_allclose(slui_coefficients(g), [1.0, 1.0], atol=1e-15)

    def test_ghz_cube(self):
        got = slui_coefficients(gram(equatorial_triangle()))
        np.testing.assert_allclose(got, [1.0, 1.5, 0.75, 0.125], atol=1e-12)

    def test_separable_cube(self):
        got = slui_coefficients(gram([X_HAT, X_HAT, X_HAT]))
        np.testing.assert_allclose(got, [1.0, -3.0, 3.0, -1.0], atol=1e-14)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(36)
        pts = [to_sphere(p) for p in random_points(rng, 5)]
        base = slui_coefficients(gram(pts))
        for _ in range(10):
            perm = rng.permutation(5)
            shuffled = [pts[i] for i in perm]
            np.testing.assert_allclose(slui_coefficients(gram(shuffled)), base, atol=1e-12)

    @pytest.mark.parametrize("shape", [(2, 3), (3,), (0, 0)])
    def test_non_square_matrix_rejected(self, shape):
        with pytest.raises(ValueError, match="square"):
            slui_coefficients(np.ones(shape))

    def test_one_point_is_the_constant_one(self):
        got = slui_coefficients(np.ones((1, 1)))
        assert got.dtype == float and got.tolist() == [1.0]

    def test_leading_coefficient_is_exactly_one(self):
        rng = np.random.default_rng(37)
        for n in range(1, 41):
            assert slui_coefficients(gram_of(unit_vectors(rng, n)))[0] == 1.0

    @pytest.mark.parametrize("n", range(2, 11))
    def test_matches_exact_expansion(self, n):
        # the same float v_ij, expanded in rational arithmetic
        rng = np.random.default_rng(38 + n)
        configs = [unit_vectors(rng, n) for _ in range(3)]
        configs.append(np.array([[0.0, 0.0, 1.0]] * (n // 2) + [[0.0, 0.0, -1.0]] * (n - n // 2)))
        big_n = n * (n - 1) // 2
        for vecs in configs:
            g = gram_of(vecs)
            ref = expand(g, Fraction)
            assert normwise(slui_coefficients(g), ref) <= 8 * big_n * EPS

    @pytest.mark.parametrize("n", [24, 32])
    def test_several_chunks_match_a_50_digit_expansion(self, n):
        big_n = n * (n - 1) // 2
        nodes = (big_n + 1) // 2 + 1
        assert lu._SLUI_CHUNK // nodes < big_n  # the factors span several chunks
        g = gram_of(unit_vectors(np.random.default_rng(n), n))
        with decimal.localcontext(decimal.Context(prec=50)):
            ref = expand(g, decimal.Decimal)
        assert normwise(slui_coefficients(g), ref) <= 8 * big_n * EPS

    @pytest.mark.parametrize("n", [48, 64])
    def test_lu_invariance_at_large_n(self, n):
        # near-uniform points: np.poly's expansion drifted by 7e-6 (n = 48)
        # and 1.7 (n = 64) here
        rng = np.random.default_rng(39 + n)
        for _ in range(3):
            vecs = lattice_vectors(rng, n)
            rot = rotation_from_h(rng.normal(size=3))
            base = slui_coefficients(gram_of(vecs))
            assert normwise(slui_coefficients(gram_of(vecs @ rot.T)), base) <= 1e-12

    def test_overflow_raises(self):
        # GHZ_128: 128 equatorial points; the coefficients exceed the float range
        t = np.pi * (2 * np.arange(128) + 1) / 128
        g = gram_of(np.stack([np.cos(t), np.sin(t), np.zeros(128)], axis=1))
        with pytest.raises(OverflowError, match="n = 128"):
            slui_coefficients(g)

    def test_overflow_inside_the_interpolation_raises(self):
        # the early bound stays below 2**1025 (about 2**546), the product does not
        v = np.full((48, 48), -0.99)
        np.fill_diagonal(v, 1.0)
        with pytest.raises(OverflowError, match="n = 48"):
            slui_coefficients(v)

    def test_overflow_at_the_qubit_ceiling_raises_at_once(self):
        # the interpolation would take tens of seconds to overflow at n = 1029
        g = gram_of(unit_vectors(np.random.default_rng(1029), 1029))
        start = time.perf_counter()
        with pytest.raises(OverflowError, match="n = 1029"):
            slui_coefficients(g)
        assert time.perf_counter() - start < 1.0


def test_a_state_and_its_mirror_image_share_the_lu_section():
    # conj(psi) mirrors the points of psi (y -> -y), which keeps every inner
    # product; the sorted Gram entries were bit-identical in 35 of these 50
    rng = np.random.default_rng(40)
    for _ in range(50):
        state = random_state(rng, 4)
        roots = roots_of(state)
        mirror = roots_of(from_dicke(4, state.amplitudes.conj()))
        g = gram([to_sphere(p) for p in roots])
        g_mirror = gram([to_sphere(p) for p in mirror])
        assert np.abs(np.sort(g_mirror, axis=None) - np.sort(g, axis=None)).max() <= 1e-14
        assert np.abs(slui_coefficients(g_mirror) - slui_coefficients(g)).max() <= 1e-13
        # a non-real J conjugates: the SLOCC section tells the two apart
        j, j_mirror = slocc_summary(roots).klein_j, slocc_summary(mirror).klein_j
        assert abs(j.imag) >= 1e-3 * abs(j)
        assert abs(j_mirror - j.conjugate()) <= 1e-13 * abs(j)
