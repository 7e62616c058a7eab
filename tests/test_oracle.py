import itertools
import tracemalloc
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helpers import (
    point,
    random_qubit,
    random_state,
    reference_bit_weights,
    reference_concurrence,
    reference_partial_trace,
    reference_three_tangle,
    reference_time_reversal_dense,
    roots_of,
    signed_zero_complex,
)
from stellarinv import (
    bloch_radius2,
    concurrence2,
    dicke_expand,
    from_dicke,
    ghz_state,
    gram,
    lu_invariants3,
    oracle_lu_invariants3,
    partial_trace,
    state_from_roots,
    three_tangle,
    time_reversal_dense,
    to_sphere,
    w_state,
    wootters_concurrence,
    y_theta,
)

SQ2 = np.sqrt(2.0)


def haar_unitary(rng, dim=2):
    z = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / SQ2
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


class TestDickeExpand:
    def test_lowest_weight(self):
        t = dicke_expand(from_dicke(2, [1, 0, 0]))
        np.testing.assert_allclose(t, [1, 0, 0, 0], atol=0)

    def test_w_state(self):
        t = dicke_expand(w_state(3))
        want = np.zeros(8)
        want[[1, 2, 4]] = 1 / np.sqrt(3)
        np.testing.assert_allclose(t, want, atol=1e-15)

    def test_ghz3(self):
        t = dicke_expand(ghz_state(3))
        want = np.zeros(8)
        want[[0, 7]] = 1 / SQ2
        np.testing.assert_allclose(t, want, atol=1e-15)

    def test_norm_preserved(self):
        rng = np.random.default_rng(71)
        for n in (2, 5, 9):
            t = dicke_expand(random_state(rng, n))
            np.testing.assert_allclose(np.linalg.norm(t), 1.0, atol=1e-12)

    def test_scale_cap(self):
        rng = np.random.default_rng(72)
        with pytest.raises(ValueError):
            dicke_expand(random_state(rng, 15))

    @settings(max_examples=60, deadline=None)
    @given(amps=st.lists(signed_zero_complex, min_size=2, max_size=11).filter(any))
    def test_matches_reference_loop_bit_for_bit(self, amps):
        state = from_dicke(len(amps) - 1, amps)
        n, a = state.n, state.amplitudes
        factors = np.array([a[w] / np.sqrt(comb(n, w)) for w in range(n + 1)])
        assert dicke_expand(state).tobytes() == factors[reference_bit_weights(n)].tobytes()


#: Dense registers of 1 to 2^10 amplitudes, many of them signed zeros.
dense_registers = st.integers(0, 10).flatmap(
    lambda n: hnp.arrays(complex, 2**n, elements=signed_zero_complex, fill=signed_zero_complex)
)


class TestTimeReversalDense:
    @settings(max_examples=60, deadline=None)
    @given(t=dense_registers)
    def test_matches_reference_loop_bit_for_bit(self, t):
        assert time_reversal_dense(t).tobytes() == reference_time_reversal_dense(t).tobytes()

    def test_one_amplitude_register_is_conjugated(self):
        np.testing.assert_array_equal(time_reversal_dense([1 + 2j]), [1 - 2j])

    @pytest.mark.parametrize("size", [0, 3, 6])
    def test_length_not_a_power_of_two_rejected(self, size):
        with pytest.raises(ValueError, match="power of two"):
            time_reversal_dense(np.ones(size))


class TestPartialTrace:
    def test_product_state_factorizes(self):
        rng = np.random.default_rng(73)
        a, b = random_qubit(rng), random_qubit(rng)
        t = np.kron(a, b)
        np.testing.assert_allclose(partial_trace(t, [1]), np.outer(a, a.conj()), atol=1e-14)
        np.testing.assert_allclose(partial_trace(t, [2]), np.outer(b, b.conj()), atol=1e-14)

    def test_ghz_single_qubit_is_maximally_mixed(self):
        t = dicke_expand(ghz_state(3))
        r1 = partial_trace(t, [1])
        np.testing.assert_allclose(r1, np.eye(2) / 2, atol=1e-14)
        np.testing.assert_allclose(np.trace(r1 @ r1).real, 0.5, atol=1e-14)

    def test_w_single_qubit_purity(self):
        t = dicke_expand(w_state(3))
        purity = np.trace(np.linalg.matrix_power(partial_trace(t, [1]), 2)).real
        np.testing.assert_allclose(purity, 5 / 9, atol=1e-14)

    def test_trace_preserved(self):
        rng = np.random.default_rng(74)
        t = dicke_expand(random_state(rng, 4))
        for keep in ([1], [2, 3], [1, 4], [1, 2, 3, 4]):
            np.testing.assert_allclose(
                np.trace(partial_trace(t, keep)).real, 1.0, atol=1e-12
            )

    @pytest.mark.parametrize("size", [0, 3, 6])
    def test_dimension_not_a_power_of_two_rejected(self, size):
        with pytest.raises(ValueError, match="power of two"):
            partial_trace(np.zeros(size), [1])

    def test_bad_index_sets(self):
        t = dicke_expand(ghz_state(3))
        for keep in ([], [0], [4], [1, 1]):
            with pytest.raises(ValueError):
                partial_trace(t, keep)

    def test_density_matrix_invariants(self):
        rng = np.random.default_rng(75)
        for _ in range(10):
            t = dicke_expand(random_state(rng, 4))
            for keep in ([1], [2], [1, 3]):
                red = partial_trace(t, keep)
                np.testing.assert_allclose(red, red.conj().T, atol=1e-12)
                np.testing.assert_allclose(np.trace(red).real, 1.0, atol=1e-12)
                assert np.linalg.eigvalsh(red).min() >= -1e-10

    def test_single_qubit_purity_bounds(self):
        rng = np.random.default_rng(76)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            t = dicke_expand(random_state(rng, n))
            for q in range(1, n + 1):
                red = partial_trace(t, [q])
                purity = np.trace(red @ red).real
                assert 0.5 - 1e-12 <= purity <= 1.0 + 1e-12

    def test_matches_the_density_matrix_reference(self):
        rng = np.random.default_rng(82)
        for n in range(1, 7):
            t = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
            t /= np.linalg.norm(t)
            rho = np.outer(t, t.conj())
            for k in range(1, n + 1):
                for keep in itertools.combinations(range(1, n + 1), k):
                    np.testing.assert_allclose(
                        partial_trace(t, keep), reference_partial_trace(rho, keep), atol=1e-14
                    )

    def test_matrix_input_rejected(self):
        # a 4 x 4 density matrix has the length of a 4-qubit vector
        t = dicke_expand(ghz_state(2))
        with pytest.raises(ValueError, match="state vector"):
            partial_trace(np.outer(t, t.conj()), [1])

    def test_ghz14_reduction_stays_below_one_mib(self):
        t = dicke_expand(ghz_state(14))
        tracemalloc.start()
        try:
            red = partial_trace(t, [1, 2])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, f"peak {peak} bytes"
        np.testing.assert_allclose(red, np.diag([0.5, 0, 0, 0.5]), atol=1e-15)


class TestOracleInvariants:
    def test_reference_configurations(self):
        rows = {
            "ghz": (ghz_state(3), (0.0, 0.25, 1.0)),
            "w": (w_state(3), (1 / 9, 2 / 9, 0.0)),
            "sep": (from_dicke(3, [1, 0, 0, 0]), (1.0, 1.0, 0.0)),
        }
        for state, want in rows.values():
            inv = oracle_lu_invariants3(dicke_expand(state))
            np.testing.assert_allclose(inv.i1, 1.0, atol=1e-12)
            np.testing.assert_allclose((inv.i2, inv.i5, inv.i6), want, atol=1e-12)

    def test_separable_row_is_all_ones_but_tangle(self):
        t = np.zeros(8)
        t[0] = 1.0
        inv = oracle_lu_invariants3(t)
        np.testing.assert_allclose(inv, (1, 1, 1, 1, 1, 0), atol=1e-14)

    def test_symmetric_inputs_have_equal_purities(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            inv = oracle_lu_invariants3(dicke_expand(random_state(rng, 3)))
            assert abs(inv.i2 - inv.i3) <= 1e-10
            assert abs(inv.i2 - inv.i4) <= 1e-10

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            oracle_lu_invariants3(np.ones(8))

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="dense 3-qubit"):
            oracle_lu_invariants3(np.ones(4) / 2)

    def test_agreement_with_stellar_route(self):
        rng = np.random.default_rng(78)
        for _ in range(100):
            state = random_state(rng, 3)
            stellar = lu_invariants3(gram([to_sphere(p) for p in roots_of(state)]))
            dense = oracle_lu_invariants3(dicke_expand(state))
            np.testing.assert_allclose(dense, stellar, rtol=0, atol=1e-8)

    def test_invariance_under_independent_local_unitaries(self):
        # the oracle computes genuine LU invariants, not merely collective ones
        rng = np.random.default_rng(79)
        for _ in range(20):
            t = dicke_expand(random_state(rng, 3))
            u = np.kron(
                np.kron(haar_unitary(rng), haar_unitary(rng)), haar_unitary(rng)
            )
            inv0 = oracle_lu_invariants3(t)
            inv1 = oracle_lu_invariants3(u @ t)
            np.testing.assert_allclose(inv1, inv0, rtol=0, atol=1e-9)


class TestWoottersConcurrence:
    def test_bell_state(self):
        t = np.array([0, 1, 1, 0]) / SQ2
        np.testing.assert_allclose(wootters_concurrence(t), 1.0, atol=1e-12)

    def test_product_state(self):
        assert wootters_concurrence(np.array([1.0, 0, 0, 0])) == 0.0

    def test_orthogonal_point_state_matches_closed_form(self):
        # roots {0, 1}: v12 = 0, closed form gives 1/3
        state = state_from_roots([point(0), point(1)])
        np.testing.assert_allclose(
            wootters_concurrence(dicke_expand(state)), 1 / 3, atol=1e-12
        )

    def test_random_symmetric_states_match_closed_form(self):
        rng = np.random.default_rng(80)
        for _ in range(50):
            state = random_state(rng, 2)
            pts = roots_of(state)
            v12 = np.dot(to_sphere(pts[0]), to_sphere(pts[1]))
            dense = dicke_expand(state)
            np.testing.assert_allclose(
                wootters_concurrence(dense), concurrence2(v12), atol=1e-9
            )
            rho1 = partial_trace(dense, [1])
            radius_sq = 2 * np.trace(rho1 @ rho1).real - 1
            np.testing.assert_allclose(bloch_radius2(v12), radius_sq, atol=1e-9)

    @pytest.mark.parametrize(
        "t",
        [
            np.array([0, 1, 1, 0]) / SQ2,
            np.array([1, 1j, -1, -1j]) / 2,
            np.array([1.0, 0, 0, 5e-9]) / np.sqrt(1 + 25e-18),
        ],
        ids=["bell", "product", "near_separable"],
    )
    def test_matches_the_spin_flip_reference(self, t):
        np.testing.assert_allclose(wootters_concurrence(t), reference_concurrence(t), atol=1e-15)

    def test_random_states_match_the_spin_flip_reference(self):
        rng = np.random.default_rng(83)
        for _ in range(200):
            t = rng.normal(size=4) + 1j * rng.normal(size=4)
            t /= np.linalg.norm(t)
            np.testing.assert_allclose(
                wootters_concurrence(t), reference_concurrence(t), atol=1e-15
            )

    def test_near_separable_value(self):
        # |00> + eps |11>, normalized: C = 2 eps / (1 + eps^2), about 1e-8
        eps = 5e-9
        t = np.array([1.0, 0, 0, eps]) / np.sqrt(1 + eps**2)
        np.testing.assert_allclose(wootters_concurrence(t), 2 * eps / (1 + eps**2), rtol=1e-14)


class TestThreeTangle:
    def test_ghz_value(self):
        np.testing.assert_allclose(
            three_tangle(dicke_expand(ghz_state(3))), 1.0, atol=1e-12
        )

    def test_w_value(self):
        np.testing.assert_allclose(
            three_tangle(dicke_expand(w_state(3))), 0.0, atol=1e-12
        )

    def test_invariant_under_phase(self):
        rng = np.random.default_rng(81)
        t = dicke_expand(random_state(rng, 3))
        np.testing.assert_allclose(
            three_tangle(np.exp(0.7j) * t), three_tangle(t), atol=1e-12
        )

    def test_random_states_match_the_expansion(self):
        rng = np.random.default_rng(84)
        for _ in range(200):
            t = rng.normal(size=8) + 1j * rng.normal(size=8)
            t /= np.linalg.norm(t)
            np.testing.assert_allclose(three_tangle(t), reference_three_tangle(t), atol=1e-13)

    @pytest.mark.parametrize("theta", [0.0, 0.1, np.pi / 8, np.pi / 4, 1.0, np.pi / 2])
    def test_y_theta_matches_the_expansion(self, theta):
        rng = np.random.default_rng(85)
        for _ in range(10):
            t = y_theta(theta, random_qubit(rng), random_qubit(rng), random_qubit(rng))
            np.testing.assert_allclose(three_tangle(t), reference_three_tangle(t), atol=1e-13)

    def test_product_states_have_no_tangle(self):
        rng = np.random.default_rng(86)
        for _ in range(20):
            t = np.kron(np.kron(random_qubit(rng), random_qubit(rng)), random_qubit(rng))
            np.testing.assert_allclose(three_tangle(t), reference_three_tangle(t), atol=1e-13)
            np.testing.assert_allclose(three_tangle(t), 0.0, atol=1e-13)


@pytest.mark.parametrize(
    "call",
    [
        lambda: oracle_lu_invariants3(np.full(8, np.nan)),
        lambda: three_tangle(np.full(8, np.nan)),
        lambda: wootters_concurrence(np.full(4, np.nan)),
        lambda: y_theta(0.3, np.array([np.nan, 0.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0])),
    ],
    ids=["oracle_lu_invariants3", "three_tangle", "wootters_concurrence", "y_theta"],
)
def test_nan_state_fails_the_normalization_check(call):
    # abs(nan - 1) > tol is False: each check must be written so NaN fails it
    with pytest.raises(ValueError, match="normalized"):
        call()
