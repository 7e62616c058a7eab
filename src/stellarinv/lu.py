"""LU (LOCC) invariants of symmetric states from stellar inner products.

In the symmetric sector, local unitaries act as a single global rotation of
the stellar points, so every LU invariant is a function of the pairwise
inner products v_ij of the unit vectors.  This module carries the closed
two- and three-qubit forms plus the generic symmetrized-product builder.
"""
from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .errors import DegenerateInputError
from .states import SphereVector

_UNIT_TOL = 1e-9
_RANGE_TOL = 1e-9

#: Most factor-by-node products :func:`slui_coefficients` holds at once.
_SLUI_CHUNK = 1 << 14


class LuInvariantSet(NamedTuple):
    """The six polynomial LU invariants of a three-qubit pure state."""

    i1: float
    i2: float
    i3: float
    i4: float
    i5: float
    i6: float


def gram(points: Sequence[SphereVector]) -> np.ndarray:
    """Matrix of pairwise inner products v_ij = v_i . v_j, unit diagonal."""
    vecs = np.array(points, dtype=float).reshape(-1, 3)
    norms = np.linalg.norm(vecs, axis=1)
    if not np.all(np.abs(norms - 1.0) <= _UNIT_TOL):  # NaN fails too
        raise ValueError("gram requires unit vectors")
    g = vecs @ vecs.T
    np.fill_diagonal(g, 1.0)
    return g


def _check_v12(v12: float) -> float:
    v12 = float(v12)
    if not -1.0 - _RANGE_TOL <= v12 <= 1.0 + _RANGE_TOL:
        raise ValueError(f"inner product must lie in [-1, 1], got {v12}")
    return min(1.0, max(-1.0, v12))


def concurrence2(v12: float) -> float:
    """Two-qubit concurrence of the symmetric state with inner product v12.

    Runs from 0 at coinciding points (v12 = 1) to 1 at antipodal points
    (v12 = -1, the symmetric EPR case).
    """
    v12 = _check_v12(v12)
    return 4.0 / (v12 + 3.0) - 1.0


def bloch_radius2(v12: float) -> float:
    """Squared radius of the one-qubit reduced Bloch vector, 2 Tr[rho_i^2] - 1.

    Equals 8 (v12 + 1) / (v12 + 3)^2: 1 for a separable pair, 0 for the
    maximally mixed reduction at antipodal points.
    """
    v12 = _check_v12(v12)
    return 8.0 * (v12 + 1.0) / (v12 + 3.0) ** 2


def symmetric_coefficients(v: np.ndarray) -> tuple[float, float, float]:
    """Elementary symmetric combinations (c0, c1, c2) of (v12, v13, v23).

    c0 = -v12 v13 v23, c1 = v12 v13 + v12 v23 + v13 v23,
    c2 = -(v12 + v13 + v23); each is invariant under relabeling the points.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (3, 3):
        raise ValueError("expected a 3x3 inner-product matrix")
    v12, v13, v23 = v[0, 1], v[0, 2], v[1, 2]
    if not np.isfinite([v12, v13, v23]).all():
        raise ValueError("inner products must be finite")
    c0 = -v12 * v13 * v23
    c1 = v12 * v13 + v12 * v23 + v13 * v23
    c2 = -(v12 + v13 + v23)
    return float(c0), float(c1), float(c2)


def lu_invariants3(v: np.ndarray) -> LuInvariantSet:
    """Closed-form three-qubit LU invariants from the 3x3 inner-product matrix.

    The symmetric sector fixes I2 = I3 = I4; everything is rational in the
    elementary symmetric combinations of (v12, v13, v23).  The denominator
    zero c2 = 3 would need all v_ij = -1, which no three unit vectors can
    realize, so hitting it flags malformed input.
    """
    c0, c1, c2 = symmetric_coefficients(v)
    if abs(c2 - 3.0) < 1e-9:
        raise DegenerateInputError(
            "c2 = 3 singularity: not a realizable sphere configuration"
        )
    d = c2 - 3.0
    i234 = (-6.0 * c0 + 18.0 * c1 + (c2 - 60.0) * c2 + 75.0) / (9.0 * d * d)
    i5 = (
        -9.0 * c0 * (c2 - 9.0)
        - 459.0
        + 27.0 * c1 * (c2 - 5.0)
        + (c2 - 24.0) * c2 * (4.0 * c2 - 21.0)
    ) / (18.0 * d**3)
    i6 = 2.0 * (c0 + c1 + c2 + 1.0) / (3.0 * d * d)
    return LuInvariantSet(1.0, float(i234), float(i234), float(i234), float(i5), float(i6))


def slui_coefficients(v: np.ndarray) -> np.ndarray:
    """Coefficients of the monic symmetrized product prod_{i<j} (x - v_ij).

    Returned highest power first; degree N = n(n-1)/2 (the empty product of a
    single point is the constant 1).  Invariant under any relabeling of the
    points and under global rotation or inversion.  Interpolated from its
    values at the N+1 roots of unity (half suffice: the v_ij are real), each
    coefficient to about N eps of the largest; ``OverflowError`` beyond floats.
    """
    v = np.asarray(v, dtype=float)
    n = v.shape[0]
    if v.ndim != 2 or v.shape != (n, n) or n < 1:
        raise ValueError("expected a square inner-product matrix")
    vals = np.concatenate([row[i + 1 :] for i, row in enumerate(v)])
    m = vals.size + 1
    # |P(i)| <= m max|c_k| <= m max|P(node)|: past 2**1025 the loop below overflows
    if np.log2(np.hypot(1.0, vals)).sum() - np.log2(m) >= 1025:
        raise OverflowError(f"SLUI coefficients of n = {n} points overflow a float")
    nodes = np.exp(-2j * np.pi * np.arange(m // 2 + 1) / m)
    values = np.ones_like(nodes)
    step = max(1, _SLUI_CHUNK // nodes.size)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, vals.size, step):
            values *= (nodes - vals[start : start + step, None]).prod(axis=0)
            if not np.isfinite(values).all():  # and would stay so
                raise OverflowError(f"SLUI coefficients of n = {n} points overflow a float")
    return np.concatenate(([1.0], np.fft.irfft(values, n=m)[-2::-1]))  # the leading 1 is exact
