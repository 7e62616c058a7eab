"""Collective operators on the symmetric sector and their root-side actions.

Local unitaries restricted to the symmetric sector are exp(i h.S) and move
the stellar points by a rigid rotation; invertible local operations extend
h to complex values and move the points by a Moebius map.  Both operators
are the n-th symmetric power of one 2x2 matrix, the exponential of the
one-qubit generator, and that same matrix gives the Moebius map.  Time
reversal sends every point to its antipode.  The exact parameter-to-geometry
correspondences implemented here are pinned by the tests.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .states import (
    DegenerateInputError,
    RiemannPoint,
    SymmetricState,
    binomial_factors,
    check_qubit_count,
    from_dicke,
)

_DOMAIN_TOL = 1e-12


#: Spin matrices of one qubit in its Dicke basis (m = -1/2, +1/2), from which
#: every one-qubit factor is built.
_SP = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
_SM = _SP.conj().T
_SZ = np.diag([-0.5, 0.5]).astype(complex)
_SX = (_SP + _SM) / 2.0
_SY = (_SP - _SM) / 2.0j

#: S = (I + i sigma_x)/sqrt(2) diagonalizes the y rotation:
#: Ry(beta) = S^dagger diag(e^{i beta/2}, e^{-i beta/2}) S.
_S = np.array([[1.0, 1.0j], [1.0j, 1.0]]) / math.sqrt(2.0)


def _recursive_power(m: np.ndarray, n: int) -> np.ndarray:
    """Symmetric power of ``m`` built one qubit at a time.

    Row j of the q-qubit matrix follows from row j of the (q-1)-qubit one
    with the divisor sqrt(q - j), or from row j - 1 with the divisor
    sqrt(j); taking the larger divisor keeps every step well conditioned
    (the scheme of Risbo, J. Geodesy 70, 1996).  Expanding the product of
    binomials directly cancels instead, losing 7 digits by n = 64.  This
    takes n numpy steps, so it only builds the cached tables below.
    """
    (a, b), (c, d) = np.asarray(m, dtype=complex).tolist()
    out = np.asarray(m, dtype=complex)
    for q in range(2, n + 1):
        k = np.arange(q + 1)
        same = np.zeros((q, q + 1), dtype=complex)
        same[:, :q] = out * np.sqrt(q - k[:q])
        shifted = np.zeros((q, q + 1), dtype=complex)
        shifted[:, 1:] = out * np.sqrt(k[1:])
        top, bottom = k[: q // 2 + 1], k[q // 2 + 1 :]
        out = np.vstack(
            [
                (a * same[top] + b * shifted[top]) / np.sqrt(q - top)[:, None],
                (c * same[bottom - 1] + d * shifted[bottom - 1]) / np.sqrt(bottom)[:, None],
            ]
        )
    return out


@lru_cache(maxsize=64)
def _power_tables(n: int) -> tuple[np.ndarray, ...]:
    """Read-only per-n constants of :func:`symmetric_power`.

    Returns the power Q of S, the exponents n - 2k of a diagonal factor's
    power, the weights sqrt(binom(k, j) binom(n-j, k-j)) of an
    upper-triangular factor's power and the steps max(k - j, 0).
    """
    k = np.arange(n + 1)
    # an exact power of two that keeps pascal * root_binomials finite to MAX_QUBITS
    root_binomials = np.ldexp(binomial_factors(n), -512)
    # pascal[j, k] = binom(k, j): column k is row k of Pascal's triangle,
    # added up in exact integers and rounded once
    pascal = np.zeros((n + 1, n + 1))
    row = np.ones(1, dtype=object)
    for col in range(n + 1):
        pascal[: col + 1, col] = row
        row = np.concatenate(([1], row[1:] + row[:-1], [1]))
    tables = (
        _recursive_power(_S, n),
        (n - 2 * k).astype(float),
        pascal * root_binomials / root_binomials[:, None],
        np.maximum(k - k[:, None], 0),
    )
    for t in tables:
        t.setflags(write=False)
    return tables


def symmetric_power(m, n: int) -> np.ndarray:
    """Dicke-basis matrix of the invertible 2x2 ``m`` acting on every qubit.

    ``m`` acts on one qubit in its Dicke basis (m = -1/2, +1/2).  A Givens
    rotation splits it as U R, U unitary and R upper triangular.  U is
    diag(u, conj u) Ry(beta) diag(w, conj w), whose power is two diagonal
    phases around Q^dagger diag Q with the cached Q; each entry of the power
    of R is a single product of powers.  No entry is a sum that cancels:
    against an 80-digit reference the error stays within 3e-14 of the norm
    up to n = 64.  ``ValueError`` for n < 1, ``OverflowError`` when an entry
    is beyond floats.
    """
    check_qubit_count(n)
    (a, b), (c, d) = np.asarray(m, dtype=complex).tolist()
    r = math.hypot(abs(a), abs(c))
    p, q = a / r, c / r
    r01 = p.conjugate() * b + q.conjugate() * d
    r11 = p * d - q * b
    qs, spread, weights, steps = _power_tables(n)
    phase_p, phase_q = cmath.phase(p), cmath.phase(q)
    beta = math.atan2(abs(q), abs(p))
    angles = [0.5j * (phase_p - phase_q), 1j * beta, 0.5j * (phase_p + phase_q)]
    left, middle, right = np.exp(np.multiply.outer(angles, spread))
    k = np.arange(n + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        triangular = weights * np.power(r01, k)[steps] * r ** (n - k) * np.power(r11, k)[:, None]
        out = (left[:, None] * qs.conj().T * middle) @ ((qs * right) @ triangular)
    if not np.isfinite(out).all():
        raise OverflowError(f"symmetric power n = {n} of this operator overflows a float")
    return out


def _unit_scaled(entries: list[complex]) -> tuple[list[complex], int]:
    """``entries`` divided by 2^e, and e, for the e that brings their largest
    real or imaginary part into [0.5, 1).  Only a part that ends below the
    smallest normal float is rounded."""
    e = math.frexp(max(abs(x) for z in entries for x in (z.real, z.imag)))[1]
    return [complex(math.ldexp(z.real, -e), math.ldexp(z.imag, -e)) for z in entries], e


def _exp_traceless(g: np.ndarray) -> np.ndarray:
    """exp(g) of a traceless 2x2 g: cosh(mu) I + sinh(mu)/mu g, mu^2 = -det g.

    mu is taken from the entries scaled by an exact power of two to below
    1, so that no square leaves the float range.
    """
    (a, b), (c, d) = g.tolist()
    (sa, sb, sc, sd), e = _unit_scaled([a, b, c, d])
    root = cmath.sqrt(sb * sc - sa * sd)
    mu = complex(math.ldexp(root.real, e), math.ldexp(root.imag, e))
    ch = cmath.cosh(mu)
    shc = cmath.sinh(mu) / mu if mu else 1.0
    return np.array([[ch + shc * a, shc * b], [shc * c, ch + shc * d]])


def _qubit_unitary(h: Sequence[float]) -> np.ndarray:
    """One-qubit unitary exp(i (hx sx + hy sy + hz sz)) in the Dicke basis."""
    hx, hy, hz = (float(c) for c in h)
    if not all(map(math.isfinite, (hx, hy, hz))):
        raise ValueError(f"rotation generator must be finite, got {h}")
    return _exp_traceless(1j * (hx * _SX + hy * _SY + hz * _SZ))


def lu_unitary(h: Sequence[float], n: int) -> np.ndarray:
    """Symmetric-sector local unitary exp(i (hx Sx + hy Sy + hz Sz)).

    The n-th symmetric power of the one-qubit unitary of the same h.
    """
    return symmetric_power(_qubit_unitary(h), n)


#: Pauli matrices x, y, z, with m = +1/2 first.
_PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def rotation_from_h(h: Sequence[float]) -> np.ndarray:
    """Rotation of the stellar points induced by lu_unitary(h).

    X Z takes the Dicke-basis qubit (-alpha, 1) of a root to (1, alpha),
    whose Bloch vector is the root's point, so the one-qubit unitary U of
    lu_unitary turns the points by the adjoint action of
    K = X Z U Z X = sigma_y U sigma_y: R_ij = Re Tr(sigma_i K sigma_j K^dagger) / 2.
    """
    k = _PAULI[1] @ _qubit_unitary(h) @ _PAULI[1]
    return 0.5 * np.einsum("iab,bc,jcd,da->ij", _PAULI, k, _PAULI, k.conj().T).real


@dataclass(frozen=True)
class IloParameters:
    """Parameters (beta1, beta2, h) of an invertible symmetric-sector operation.

    Requires beta1 != beta2 and beta1 + beta2 != 0.  The unitary subclass is
    beta1 = -1/conj(beta2) with real h.
    """

    beta1: complex
    beta2: complex
    h: complex

    def __post_init__(self):
        for name in ("beta1", "beta2", "h"):
            object.__setattr__(self, name, complex(getattr(self, name)))
        b1, b2 = self.beta1, self.beta2
        if not all(map(cmath.isfinite, (b1, b2, self.h))):
            raise ValueError("ILO parameters must be finite")
        scale = max(1.0, abs(b1), abs(b2))
        if abs(b1 - b2) <= _DOMAIN_TOL * scale:
            raise DegenerateInputError("parameterization requires beta1 != beta2")
        if abs(b1 + b2) <= _DOMAIN_TOL * scale:
            raise DegenerateInputError("parameterization requires beta1 + beta2 != 0")

    @property
    def gamma(self) -> complex:
        return np.exp(1j * (self.h / 2.0) * (self.beta1 - self.beta2) / (self.beta1 + self.beta2))


@dataclass(frozen=True)
class MobiusTransform:
    """Invertible 2x2 complex matrix acting projectively on roots."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError("Moebius matrix must be 2x2")
        if not np.isfinite(m).all():
            raise ValueError("Moebius matrix entries must be finite")
        # tested at unit scale, so that the determinant stays within the floats
        (a, b, c, d), _ = _unit_scaled(m.ravel().tolist())
        if abs(a * d - b * c) <= 1e-12 * max(map(abs, (a, b, c, d))) ** 2:
            raise ValueError("Moebius matrix must be invertible")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def _ilo_factor(p: IloParameters) -> np.ndarray:
    """One-qubit factor exp(i h (S+/(b1+b2) + Sz - b1 b2 S-/(b1+b2)))."""
    b1, b2 = p.beta1, p.beta2
    gen = _SP / (b1 + b2) + _SZ - b1 * b2 * _SM / (b1 + b2)
    return _exp_traceless(1j * p.h * gen)


def ilo_operator(p: IloParameters, n: int) -> np.ndarray:
    """Invertible symmetric-sector operator
    exp(i h (S+/(b1+b2) + Sz - b1 b2 S-/(b1+b2))).

    The n-th symmetric power of the one-qubit factor of ``p``.  Inverse is
    the operator of the same parameters with h -> -h.
    """
    return symmetric_power(_ilo_factor(p), n)


def mobius_from_ilo(p: IloParameters) -> MobiusTransform:
    """Moebius map the operator of ``p`` induces on the stellar roots.

    A root alpha is the qubit vector (-alpha, 1) up to scale, so the one-qubit
    factor m moves the roots by Z m Z, Z = diag(1, -1).  Fixes beta1 and
    beta2 for any parameters; reduces to a scalar matrix at h = 0.
    """
    return MobiusTransform(_ilo_factor(p) * np.array([[1.0, -1.0], [-1.0, 1.0]]))


def apply_mobius(m: MobiusTransform, p: RiemannPoint) -> RiemannPoint:
    """Projective action (a, b) -> (m00 a + m01 b, m10 a + m11 b)."""
    mat = m.matrix
    return RiemannPoint(
        mat[0, 0] * p.a + mat[0, 1] * p.b,
        mat[1, 0] * p.a + mat[1, 1] * p.b,
    )


def apply_operator(op: np.ndarray, state: SymmetricState) -> SymmetricState:
    """Apply a symmetric-sector matrix to a state and renormalize."""
    out = np.asarray(op, dtype=complex) @ state.amplitudes
    return from_dicke(state.n, out)


def time_reversal(state: SymmetricState) -> SymmetricState:
    """Antiunitary time reversal on Dicke amplitudes.

    Realizes conjugation followed by the symmetric-sector restriction of the
    n-fold (i sigma_y) product: b_k = (-1)^k conj(a_{n-k}), the rule of
    :func:`oracle.time_reversal_dense` with the Dicke index as the weight.
    Stellar points map to their antipodes, and applying it twice gives (-1)^n.
    """
    n = state.n
    return from_dicke(n, (-1.0) ** np.arange(n + 1) * np.conj(state.amplitudes[::-1]))
