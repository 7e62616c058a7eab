"""Brute-force reference route through the full 2^n Hilbert space.

Symmetric states are expanded into dense computational-basis vectors and
the invariants are evaluated from their textbook definitions (reduced
density matrices, spin-flip concurrence, hyperdeterminant 3-tangle),
independently of any stellar-geometry formula.  Every input is a pure
state vector, and nothing here allocates a 2^n x 2^n matrix.  Every
function on a 2^n register lives here.  Qubit 1 is the most significant
bit of the basis index, and the bit count of an index is its Dicke index.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .lu import LuInvariantSet
from .states import SymmetricState, binomial_factors

#: Dense vectors are capped at 2^14 amplitudes.
MAX_DENSE_QUBITS = 14

_NORM_TOL = 1e-10


def _qubit_count(dim: int) -> int:
    """n of a register of dim = 2^n amplitudes."""
    if dim < 1 or dim & (dim - 1):
        raise ValueError(f"dimension {dim} is not a power of two")
    return dim.bit_length() - 1


def _bit_weights(n: int) -> np.ndarray:
    """Bit count of every basis index 0..2^n - 1, built by doubling."""
    w = np.zeros(1, dtype=np.uint8)
    for _ in range(n):
        w = np.concatenate((w, w + 1))
    return w


def dicke_expand(state: SymmetricState) -> np.ndarray:
    """Expand Dicke amplitudes into the full 2^n computational basis.

    |s, m> becomes the normalized equal superposition of all bitstrings of
    weight s + m, so the dense amplitude of a bitstring of weight w is
    a_w / sqrt(binom(n, w)).
    """
    n = state.n
    if n > MAX_DENSE_QUBITS:
        raise ValueError(f"dense expansion capped at n = {MAX_DENSE_QUBITS}")
    return (state.amplitudes / binomial_factors(n))[_bit_weights(n)]


def time_reversal_dense(t: np.ndarray) -> np.ndarray:
    """Time reversal on a dense qubit register: (i sigma_y)^(x n) after
    conjugation in the computational basis.

    The rule of :func:`transforms.time_reversal` with the bit count as the
    weight: out_x = (-1)^weight(x) conj(t_{2^n - 1 - x}).
    """
    t = np.asarray(t, dtype=complex)
    return (-1.0) ** _bit_weights(_qubit_count(t.size)) * np.conj(t[::-1])


def y_theta(theta: float, u1, u2, u3) -> np.ndarray:
    """(cos(theta) + sin(theta) T) applied to the product state u1 u2 u3.

    Inputs are normalized single-qubit amplitude pairs; the output is the
    renormalized dense 3-qubit vector, which never vanishes: each qubit is
    orthogonal to its time reverse, so the two terms are orthogonal.  At
    theta = pi/4 the output is a maximally 3-tangled state for any inputs.
    """
    qubits = []
    for u in (u1, u2, u3):
        u = np.asarray(u, dtype=complex)
        if u.shape != (2,):
            raise ValueError("single-qubit states must have two amplitudes")
        if not abs(np.linalg.norm(u) - 1.0) <= 1e-9:
            raise ValueError("single-qubit states must be normalized")
        qubits.append(u)
    t = np.kron(np.kron(qubits[0], qubits[1]), qubits[2])
    out = np.cos(theta) * t + np.sin(theta) * time_reversal_dense(t)
    return out / np.linalg.norm(out)


def partial_trace(t: np.ndarray, keep: Sequence[int]) -> np.ndarray:
    """Reduced density matrix of the dense state vector ``t`` over the
    1-based qubit indices in ``keep``.

    Qubit 1 is the most significant bit.  The kept qubits, in ascending
    order, are moved to the front and the vector is read as a
    2^k x 2^(n-k) matrix m; the reduced state is m m^dagger.
    """
    t = np.asarray(t, dtype=complex)
    if t.ndim != 1:
        raise ValueError("expected a dense state vector")
    n = _qubit_count(t.size)
    keep0 = sorted({int(q) - 1 for q in keep})
    if not keep0 or keep0[0] < 0 or keep0[-1] >= n:
        raise ValueError(f"keep must be a non-empty subset of 1..{n}")
    if len(keep0) != len(keep):
        raise ValueError("keep contains duplicate indices")
    order = keep0 + [i for i in range(n) if i not in keep0]
    m = t.reshape((2,) * n).transpose(order).reshape(2 ** len(keep0), -1)
    return m @ m.conj().T


def _check_normalized(t: np.ndarray, n: int) -> np.ndarray:
    t = np.asarray(t, dtype=complex)
    if t.shape != (2**n,):
        raise ValueError(f"expected a dense {n}-qubit vector")
    if not abs(np.linalg.norm(t) - 1.0) <= _NORM_TOL:  # NaN fails too
        raise ValueError("dense state must be normalized")
    return t


def _det2(m: np.ndarray) -> complex:
    """Determinant of the 2x2 matrix stored row by row in a 4-vector."""
    return m[0] * m[3] - m[1] * m[2]


def three_tangle(t: np.ndarray) -> float:
    """3-tangle of a pure 3-qubit state, 4 |Det t|, with Det Cayley's
    hyperdeterminant (Coffman, Kundu & Wootters, PRA 61, 052306, 2000).

    Det t is the discriminant of det(x t0 + y t1) = d0 x^2 + (d01 - d0 - d1) x y
    + d1 y^2, the slices t0, t1 being the 2x2 blocks of qubit 1 = 0, 1 and
    d0 = det t0, d1 = det t1, d01 = det(t0 + t1):
    Det t = (d01 - d0 - d1)^2 - 4 d0 d1.
    """
    t = _check_normalized(t, 3)
    d0, d1, d01 = _det2(t[:4]), _det2(t[4:]), _det2(t[:4] + t[4:])
    return float(4.0 * abs((d01 - d0 - d1) ** 2 - 4.0 * d0 * d1))


def oracle_lu_invariants3(t: np.ndarray) -> LuInvariantSet:
    """The six LU invariants of a dense 3-qubit state from first principles.

    I1 = <t|t>; I2..I4 are the single-qubit purities 2 Tr[rho_i^2] - 1;
    I5 = Tr[3 (rho_1 x rho_2) rho_12] - Tr[rho_1^3] - Tr[rho_2^3] (the
    degree-6 invariant); I6 is the 3-tangle.
    """
    t = _check_normalized(t, 3)
    r1 = partial_trace(t, [1])
    r2 = partial_trace(t, [2])
    r3 = partial_trace(t, [3])
    r12 = partial_trace(t, [1, 2])
    i1 = float(np.vdot(t, t).real)
    i2 = float(2.0 * np.trace(r1 @ r1).real - 1.0)
    i3 = float(2.0 * np.trace(r2 @ r2).real - 1.0)
    i4 = float(2.0 * np.trace(r3 @ r3).real - 1.0)
    i5 = float(
        (
            3.0 * np.trace(np.kron(r1, r2) @ r12)
            - np.trace(r1 @ r1 @ r1)
            - np.trace(r2 @ r2 @ r2)
        ).real
    )
    return LuInvariantSet(i1, i2, i3, i4, i5, three_tangle(t))


def wootters_concurrence(t: np.ndarray) -> float:
    """Concurrence of a dense pure 2-qubit state.

    The spin-flip overlap C = |<t| sy x sy |t*>| = 2 |t00 t11 - t01 t10|
    (Hill & Wootters, PRL 78, 5022, 1997).
    """
    t = _check_normalized(t, 2)
    return float(2.0 * abs(_det2(t)))
