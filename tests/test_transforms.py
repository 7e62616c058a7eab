import os
import subprocess
import sys
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stellarinv
from helpers import (
    assert_multisets_close,
    point,
    random_disk,
    random_h,
    random_qubit,
    random_state,
    reference_bit_weights,
    reference_time_reversal,
    roots_of,
    signed_zero_complex,
    spin_operators,
)
from stellarinv import (
    DegenerateInputError,
    IloParameters,
    MobiusTransform,
    RiemannPoint,
    SphereVector,
    apply_mobius,
    apply_operator,
    chordal_distance,
    degeneracy_class,
    dicke_expand,
    from_sphere,
    gram,
    ilo_operator,
    lu_invariants3,
    lu_unitary,
    mobius_from_ilo,
    oracle_lu_invariants3,
    rotation_from_h,
    symmetrized_ik,
    three_tangle,
    time_reversal,
    time_reversal_dense,
    to_sphere,
    y_theta,
)
from stellarinv.states import binomial_factors
from stellarinv import transforms
from stellarinv.transforms import _power_tables, symmetric_power


def random_ilo(rng, gamma_bound=10.0):
    """In-domain parameters from the unit disk with a bounded Moebius part."""
    while True:
        try:
            params = IloParameters(
                random_disk(rng), random_disk(rng), random_disk(rng)
            )
        except DegenerateInputError:
            continue
        g = params.gamma
        if abs(g - 1.0 / g) < gamma_bound:
            return params


class TestSpinOperators:
    def test_raising_action(self):
        ops = spin_operators(3)
        s = 1.5
        for k, m in enumerate((-1.5, -0.5, 0.5)):
            np.testing.assert_allclose(
                ops.sp[k + 1, k], np.sqrt(s * (s + 1) - m * (m + 1)), atol=1e-14
            )

    def test_sz_diagonal(self):
        ops = spin_operators(4)
        np.testing.assert_allclose(np.diag(ops.sz), [-2, -1, 0, 1, 2], atol=0)

    def test_commutator(self):
        for n in (1, 2, 5, 9):
            ops = spin_operators(n)
            comm = ops.sz @ ops.sp - ops.sp @ ops.sz
            np.testing.assert_allclose(comm, ops.sp, atol=1e-12)

    def test_one_qubit_constants_match_bit_for_bit(self):
        one = spin_operators(1)
        for name in ("sp", "sm", "sz", "sx", "sy"):
            const = getattr(transforms, "_" + name.upper())
            assert const.tobytes() == getattr(one, name).tobytes(), name


class TestLuUnitary:
    def test_zero_is_identity(self):
        np.testing.assert_allclose(lu_unitary([0, 0, 0], 4), np.eye(5), atol=1e-14)

    def test_z_rotation_phases(self):
        phi = 0.77
        u = lu_unitary([0, 0, phi], 3)
        m = np.arange(-1.5, 2.5)
        np.testing.assert_allclose(u, np.diag(np.exp(1j * m * phi)), atol=1e-12)

    def test_unitary(self):
        rng = np.random.default_rng(51)
        for n in (2, 5, 8):
            u = lu_unitary(rng.normal(size=3), n)
            np.testing.assert_allclose(u.conj().T @ u, np.eye(n + 1), atol=1e-10)


def random_unitary2(rng):
    return np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]


def eigh_lu_unitary(h, n):
    """exp(i h.S_n) through the eigendecomposition of the Hermitian generator."""
    ops = spin_operators(n)
    w, vecs = np.linalg.eigh(h[0] * ops.sx + h[1] * ops.sy + h[2] * ops.sz)
    return (vecs * np.exp(1j * w)) @ vecs.conj().T


def series_expm(g):
    """exp(g) by scaling, a 30-term Taylor series and squaring."""
    halvings = int(np.ceil(np.log2(np.abs(g).sum() + 1.0))) + 1
    g = g / 2.0**halvings
    term = out = np.eye(len(g), dtype=complex)
    for k in range(1, 30):
        term = term @ g / k
        out = out + term
    for _ in range(halvings):
        out = out @ out
    return out


def dense_power(m, n):
    """m^(x n) on the 2^n register, restricted to the Dicke basis.

    Qubit state 0 is m = -1/2, so Dicke index k is the bitstring weight.
    """
    full = np.ones((1, 1), dtype=complex)
    for _ in range(n):
        full = np.kron(full, m)
    weights = reference_bit_weights(n)
    dicke = np.stack([(weights == k) / np.sqrt(comb(n, k)) for k in range(n + 1)], axis=1)
    return dicke.T @ full @ dicke


class TestSymmetricPower:
    def test_lu_matches_eigh_exponential(self):
        rng = np.random.default_rng(69)
        for n in (1, 2, 3, 5, 8, 16, 32, 64):
            for _ in range(5):
                h = random_h(rng)
                np.testing.assert_allclose(
                    lu_unitary(h, n), eigh_lu_unitary(h, n), rtol=0, atol=1e-12
                )

    def test_operators_match_dense_tensor_power(self):
        rng = np.random.default_rng(70)
        one = spin_operators(1)
        for n in range(1, 9):
            for _ in range(4):
                h = random_h(rng)
                m = series_expm(1j * (h[0] * one.sx + h[1] * one.sy + h[2] * one.sz))
                ref = dense_power(m, n)
                assert np.abs(lu_unitary(h, n) - ref).max() <= 1e-12 * np.abs(ref).max()
                p = random_ilo(rng)
                b1, b2 = p.beta1, p.beta2
                m = series_expm(
                    1j * p.h * (one.sp / (b1 + b2) + one.sz - b1 * b2 * one.sm / (b1 + b2))
                )
                ref = dense_power(m, n)
                assert np.abs(ilo_operator(p, n) - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize(
        "m",
        [
            [[0.0, 1.0], [1.0, 0.0]],
            [[2.0, 0.0], [0.0, -0.5j]],
            [[0.0, 1.5], [-2.0, 0.3j]],
            [[1.0, 3.0], [0.0, 1.0]],
        ],
        ids=["swap", "diagonal", "zero-corner", "shear"],
    )
    def test_special_matrices_match_dense_tensor_power(self, m):
        m = np.array(m, dtype=complex)
        for n in (1, 4, 7):
            ref = dense_power(m, n)
            assert np.abs(symmetric_power(m, n) - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_triangular_weights_match_binomials(self):
        for n in (1, 2, 7, 130):
            pascal = np.array([[comb(c, r) for c in range(n + 1)] for r in range(n + 1)], dtype=float)
            root_binomials = np.ldexp(binomial_factors(n), -512)
            want = pascal * root_binomials / root_binomials[:, None]
            assert np.array_equal(_power_tables(n)[3], want)

    def test_multiplicative_at_n64(self):
        rng = np.random.default_rng(71)
        for _ in range(5):
            m1, m2 = (random_unitary2(rng) for _ in range(2))
            np.testing.assert_allclose(
                symmetric_power(m1 @ m2, 64),
                symmetric_power(m1, 64) @ symmetric_power(m2, 64),
                rtol=0,
                atol=1e-12,
            )

    def test_power_beyond_floats_raises(self):
        with pytest.raises(OverflowError, match="n = 110"):
            symmetric_power(np.diag([1e3, 1e-3]), 110)

    def test_import_leaves_scipy_out(self):
        # cold start: importing scipy used to be most of every CLI call
        src = os.path.dirname(os.path.dirname(stellarinv.__file__))
        code = "import sys, stellarinv; print(sorted(m for m in sys.modules if 'scipy' in m))"
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        assert out.stdout.strip() == "[]"


class TestRotationFromH:
    def test_zero(self):
        np.testing.assert_allclose(rotation_from_h([0, 0, 0]), np.eye(3), atol=0)

    def test_full_turn(self):
        axis = np.array([1.0, 2.0, 2.0])
        h = 2 * np.pi * axis / np.linalg.norm(axis)
        np.testing.assert_allclose(rotation_from_h(h), np.eye(3), atol=1e-12)

    def test_quarter_turn_about_z(self):
        r = rotation_from_h([0, 0, np.pi / 2])
        np.testing.assert_allclose(r @ np.array([0, 0, 1.0]), [0, 0, 1.0], atol=1e-12)
        np.testing.assert_allclose(np.linalg.matrix_power(r, 4), np.eye(3), atol=1e-12)
        assert np.abs(r - np.eye(3)).max() > 0.5

    def test_proper_rotation(self):
        rng = np.random.default_rng(52)
        for _ in range(20):
            r = rotation_from_h(rng.normal(size=3))
            np.testing.assert_allclose(r @ r.T, np.eye(3), atol=1e-12)
            np.testing.assert_allclose(np.linalg.det(r), 1.0, atol=1e-12)


class TestLuRotationCorrespondence:
    def test_points_rotate(self):
        rng = np.random.default_rng(53)
        for n in range(1, 9):
            for _ in range(5):
                state = random_state(rng, n)
                h = random_h(rng)
                moved = apply_operator(lu_unitary(h, n), state)
                rot = rotation_from_h(h)
                want = [
                    from_sphere(SphereVector(*(rot @ np.array(to_sphere(p)))))
                    for p in roots_of(state)
                ]
                assert_multisets_close(roots_of(moved), want, 1e-7)

    def test_invariants_unchanged(self):
        rng = np.random.default_rng(54)
        for _ in range(25):
            state = random_state(rng, 3)
            inv0 = lu_invariants3(gram([to_sphere(p) for p in roots_of(state)]))
            moved = apply_operator(lu_unitary(random_h(rng), 3), state)
            inv1 = lu_invariants3(gram([to_sphere(p) for p in roots_of(moved)]))
            np.testing.assert_allclose(inv1, inv0, rtol=0, atol=1e-9)


class TestIloOperator:
    def test_zero_h_is_identity(self):
        p = IloParameters(0.3 + 0.1j, -0.5 + 0.4j, 0.0)
        np.testing.assert_allclose(ilo_operator(p, 3), np.eye(4), atol=1e-14)

    def test_domain_rejection(self):
        with pytest.raises(DegenerateInputError):
            IloParameters(0.5, 0.5, 1.0)
        with pytest.raises(DegenerateInputError):
            IloParameters(0.5, -0.5, 1.0)

    def test_unitary_subclass(self):
        rng = np.random.default_rng(55)
        for _ in range(10):
            b2 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) + 0.2
            p = IloParameters(-1.0 / np.conj(b2), b2, rng.uniform(-2, 2))
            a = ilo_operator(p, 4)
            np.testing.assert_allclose(a.conj().T @ a, np.eye(5), atol=1e-10)

    def test_inverse_parameters(self):
        rng = np.random.default_rng(56)
        for _ in range(10):
            p = random_ilo(rng)
            a = ilo_operator(p, 3)
            b = ilo_operator(IloParameters(p.beta1, p.beta2, -p.h), 3)
            np.testing.assert_allclose(a @ b, np.eye(4), atol=1e-9)


class TestMobiusFromIlo:
    def test_zero_h_is_scalar(self):
        p = IloParameters(0.3 + 0.1j, -0.5 + 0.4j, 0.0)
        m = mobius_from_ilo(p).matrix
        np.testing.assert_allclose(m / m[0, 0], np.eye(2), atol=1e-14)

    def test_betas_are_fixed_points(self):
        rng = np.random.default_rng(57)
        for _ in range(20):
            p = random_ilo(rng)
            mob = mobius_from_ilo(p)
            for beta in (p.beta1, p.beta2):
                moved = apply_mobius(mob, point(beta))
                assert abs(moved.value - beta) <= 1e-9


class TestApplyMobius:
    def test_identity(self):
        p = point(0.3 - 0.8j)
        q = apply_mobius(MobiusTransform(np.eye(2)), p)
        assert abs(q.value - p.value) == 0.0

    def test_inversion_swaps_zero_and_infinity(self):
        inv = MobiusTransform(np.array([[0, 1], [1, 0]], dtype=complex))
        assert apply_mobius(inv, point(0)).is_infinite
        assert abs(apply_mobius(inv, RiemannPoint.infinity()).value) == 0.0

    def test_translation_fixes_infinity(self):
        tr = MobiusTransform(np.array([[1, 1], [0, 1]], dtype=complex))
        assert apply_mobius(tr, RiemannPoint.infinity()).is_infinite

    def test_singular_matrix_rejected(self):
        with pytest.raises(ValueError):
            MobiusTransform(np.array([[1, 1], [1, 1]], dtype=complex))

    def test_non_2x2_matrix_rejected(self):
        with pytest.raises(ValueError, match="2x2"):
            MobiusTransform(np.eye(3))

    def test_inverse_undoes_the_map(self):
        rng = np.random.default_rng(70)
        m = MobiusTransform(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        pts = [point(complex(*rng.normal(size=2))) for _ in range(20)]
        for p in pts + [RiemannPoint.infinity()]:
            back = apply_mobius(m.inverse(), apply_mobius(m, p))
            assert chordal_distance(back, p) <= 1e-14


class TestIloMobiusCorrespondence:
    def test_roots_transform_by_mobius(self):
        rng = np.random.default_rng(58)
        for n in (3, 4, 5, 6):
            for _ in range(8):
                state = random_state(rng, n)
                p = random_ilo(rng)
                moved = apply_operator(ilo_operator(p, n), state)
                mob = mobius_from_ilo(p)
                want = [apply_mobius(mob, r) for r in roots_of(state)]
                assert_multisets_close(roots_of(moved), want, 1e-7)

    def test_elliptic_subclass_preserves_gram(self):
        rng = np.random.default_rng(59)
        for _ in range(10):
            b2 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) + 0.3
            p = IloParameters(-1.0 / np.conj(b2), b2, rng.uniform(-2, 2))
            mob = mobius_from_ilo(p)
            pts = [point(complex(rng.normal(), rng.normal())) for _ in range(4)]
            g0 = gram([to_sphere(q) for q in pts])
            g1 = gram([to_sphere(apply_mobius(mob, q)) for q in pts])
            np.testing.assert_allclose(g1, g0, atol=1e-9)

    def test_slocc_invariants_preserved(self):
        rng = np.random.default_rng(60)
        done = 0
        while done < 10:
            state = random_state(rng, 4)
            p = random_ilo(rng)
            r0 = roots_of(state)
            images = [apply_mobius(mobius_from_ilo(p), r) for r in r0]
            if min(
                chordal_distance(a, b) for i, a in enumerate(images) for b in images[:i]
            ) < 0.1:
                continue  # compressed constellations are ill-conditioned
            done += 1
            moved = apply_operator(ilo_operator(p, 4), state)
            r1 = roots_of(moved)
            assert degeneracy_class(r0, 1e-7) == degeneracy_class(r1, 1e-7)
            v0 = symmetrized_ik(r0, 2)
            v1 = symmetrized_ik(r1, 2)
            assert abs(v0 - v1) <= 1e-8 * max(1.0, abs(v0))


class TestTimeReversal:
    def test_roots_map_to_antipodes(self):
        rng = np.random.default_rng(61)
        for n in (2, 3, 5, 7):
            state = random_state(rng, n)
            flipped = time_reversal(state)
            want = [p.antipode() for p in roots_of(state)]
            assert_multisets_close(roots_of(flipped), want, 1e-9)

    def test_double_application_is_minus_one_for_odd_n(self):
        rng = np.random.default_rng(62)
        state = random_state(rng, 3)
        twice = time_reversal(time_reversal(state))
        np.testing.assert_allclose(twice.amplitudes, -state.amplitudes, atol=1e-14)

    def test_double_application_is_plus_one_for_even_n(self):
        rng = np.random.default_rng(63)
        state = random_state(rng, 4)
        twice = time_reversal(time_reversal(state))
        np.testing.assert_allclose(twice.amplitudes, state.amplitudes, atol=1e-14)

    @settings(max_examples=80, deadline=None)
    @given(amps=st.lists(signed_zero_complex, min_size=2, max_size=65).filter(any))
    def test_matches_reference_loop_bit_for_bit(self, amps):
        state = stellarinv.from_dicke(len(amps) - 1, amps)
        want = stellarinv.from_dicke(state.n, reference_time_reversal(state.amplitudes))
        assert time_reversal(state).amplitudes.tobytes() == want.amplitudes.tobytes()

    def test_matches_dense_action(self):
        rng = np.random.default_rng(64)
        for n in (2, 3, 4):
            state = random_state(rng, n)
            dense = time_reversal_dense(dicke_expand(state))
            np.testing.assert_allclose(
                dense, dicke_expand(time_reversal(state)), atol=1e-14
            )

    def test_invariants_unchanged_on_ghz(self):
        state = random_state(np.random.default_rng(65), 3)
        inv0 = oracle_lu_invariants3(dicke_expand(state))
        inv1 = oracle_lu_invariants3(dicke_expand(time_reversal(state)))
        np.testing.assert_allclose(inv1, inv0, rtol=0, atol=1e-9)


class TestYTheta:
    def test_zero_angle_is_identity(self):
        rng = np.random.default_rng(66)
        u1, u2, u3 = (random_qubit(rng) for _ in range(3))
        out = y_theta(0.0, u1, u2, u3)
        want = np.kron(np.kron(u1, u2), u3)
        np.testing.assert_allclose(out, want, atol=1e-14)

    def test_symmetric_input_gives_unit_tangle(self):
        rng = np.random.default_rng(67)
        for _ in range(10):
            u = random_qubit(rng)
            out = y_theta(np.pi / 4, u, u, u)
            np.testing.assert_allclose(three_tangle(out), 1.0, atol=1e-9)

    def test_generic_input_gives_unit_tangle(self):
        rng = np.random.default_rng(68)
        for _ in range(10):
            out = y_theta(
                np.pi / 4, random_qubit(rng), random_qubit(rng), random_qubit(rng)
            )
            np.testing.assert_allclose(three_tangle(out), 1.0, atol=1e-9)

    def test_unnormalized_input_rejected(self):
        with pytest.raises(ValueError):
            y_theta(0.3, np.array([1.0, 1.0]), np.array([1.0, 0.0]), np.array([0, 1.0]))

    def test_qubit_with_three_amplitudes_rejected(self):
        with pytest.raises(ValueError, match="two amplitudes"):
            y_theta(0.3, np.array([1.0, 0.0, 0.0]), np.array([1.0, 0.0]), np.array([0, 1.0]))

    def test_output_is_normalized_at_every_angle(self):
        # each qubit is orthogonal to its time reverse, so the two terms are
        # orthogonal and the output never vanishes
        rng = np.random.default_rng(69)
        for theta in rng.uniform(-10, 10, size=50):
            out = y_theta(theta, random_qubit(rng), random_qubit(rng), random_qubit(rng))
            assert abs(np.linalg.norm(out) - 1.0) <= 1e-15
