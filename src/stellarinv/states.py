"""Symmetric n-qubit states and their stellar representation.

A symmetric state of n qubits is stored as its n+1 Dicke amplitudes a_m,
ordered by ascending m = -s..s with s = n/2.  The state is equivalently a
polynomial with coefficient sqrt(binom(n, k)) * a_{k-s} on alpha^k; its n
roots, completed by points at infinity whenever the degree drops below n,
map to n points on the unit sphere by inverse stereographic projection
(alpha = 0 at the north pole, alpha = infinity at the south pole).

Everything here is immutable after construction and every function is pure.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from math import comb, isfinite
from typing import Iterable, NamedTuple, Sequence

import numpy as np

#: Relative threshold at or below which an end coefficient of the polynomial
#: counts as zero, giving an exact root at 0 (low end) or at infinity (top).
LEADING_COEFF_TOL = 1e-12

#: Smallest normal float.  After scaling a projective pair to max(|a|, |b|) = 1,
#: a point whose |b| falls below it is the point at infinity, where a/b can overflow.
INFINITY_TOL = float(np.finfo(float).tiny)

_NORM_TOL = 1e-12

#: Largest qubit count whose binomials binom(n, k) all fit a float; the
#: polynomial coefficients of larger states cannot be formed.
MAX_QUBITS = 1029


class RiemannPoint:
    """Point on the extended complex plane, stored as a projective pair.

    ``(a, b)`` represents alpha = a/b, with b = 0 the point at infinity.
    Pairs are rescaled so that max(|a|, |b|) = 1; a pair whose |b| then falls
    below :data:`INFINITY_TOL` collapses to the exact infinity pair (1, 0),
    so every other point has a finite float value a/b.  Scaling a pair by a
    nonzero complex number leaves the point unchanged.
    """

    __slots__ = ("a", "b")

    def __init__(self, a: complex, b: complex = 1.0):
        a, b = complex(a), complex(b)
        abs_a, abs_b = abs(a), abs(b)
        scale = max(abs_a, abs_b)
        if scale == 0.0 or not (isfinite(abs_a) and isfinite(abs_b)):
            raise ValueError(f"invalid projective pair ({a}, {b})")
        if abs_b / scale < INFINITY_TOL:
            a, b, scale = 1.0 + 0.0j, 0.0j, 1.0
        self.a = a / scale
        self.b = b / scale

    @classmethod
    def infinity(cls) -> "RiemannPoint":
        return cls(1.0, 0.0)

    @property
    def is_infinite(self) -> bool:
        return self.b == 0

    @property
    def value(self) -> complex:
        """Finite value alpha = a/b; raises for the point at infinity."""
        if self.is_infinite:
            raise ValueError("point at infinity has no finite value")
        return self.a / self.b

    def antipode(self) -> "RiemannPoint":
        """Image under alpha -> -1/conj(alpha), the sphere antipodal map."""
        return RiemannPoint(-self.b.conjugate(), self.a.conjugate())

    def __repr__(self) -> str:
        if self.is_infinite:
            return "RiemannPoint(inf)"
        return f"RiemannPoint({self.value!r})"


class SphereVector(NamedTuple):
    """Unit vector in R^3, the stellar image of one polynomial root."""

    x: float
    y: float
    z: float


def to_sphere(p: RiemannPoint) -> SphereVector:
    """Inverse stereographic image of a point of the extended plane.

    alpha maps to (2 Re alpha, 2 Im alpha, 1 - |alpha|^2) / (1 + |alpha|^2);
    infinity maps to the south pole (0, 0, -1).  Computed on the projective
    pair, so no intermediate overflows near infinity.
    """
    na = abs(p.a) ** 2
    nb = abs(p.b) ** 2
    d = na + nb
    w = p.a * p.b.conjugate()
    return SphereVector(2.0 * w.real / d, 2.0 * w.imag / d, (nb - na) / d)


def from_sphere(v: SphereVector) -> RiemannPoint:
    """Forward stereographic map, inverse of :func:`to_sphere`.

    Uses alpha = (x+iy)/(1+z) on the northern hemisphere and the equivalent
    form (1-z)/(x-iy) on the southern one, which stays accurate near the
    south pole and returns exact infinity there.
    """
    if v.z >= 0.0:
        return RiemannPoint(complex(v.x, v.y), 1.0 + v.z)
    return RiemannPoint(1.0 - v.z, complex(v.x, -v.y))


def chordal_distance(p: RiemannPoint, q: RiemannPoint) -> float:
    """Euclidean distance of the sphere images, in [0, 2], as
    :func:`projective_differences` computes it."""
    pairs = projective_pairs((p, q))
    return float(projective_differences(pairs, pairs)[1][0, 1])


def projective_pairs(points: Iterable[RiemannPoint]) -> np.ndarray:
    """The (m, 2) array of projective pairs (a, b) of the points."""
    return np.array([(p.a, p.b) for p in points])


def projective_differences(rows: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Projective differences det[x, y] = a_x b_y - a_y b_x of every row pair x
    and column pair y, and their chordal distances 2|det| / sqrt((|a_x|^2 +
    |b_x|^2)(|a_y|^2 + |b_y|^2))."""
    ra, rb = rows.T
    ca, cb = cols.T
    det = np.multiply.outer(ra, cb) - np.multiply.outer(rb, ca)
    norms = np.multiply.outer(abs(ra) ** 2 + abs(rb) ** 2, abs(ca) ** 2 + abs(cb) ** 2)
    return det, 2.0 * abs(det) / np.sqrt(norms)


@dataclass(frozen=True, eq=False)
class SymmetricState:
    """Symmetric n-qubit state given by n+1 Dicke amplitudes, m ascending.

    Amplitudes must be finite and not all zero.  They are normalized to unit
    Euclidean norm at construction, after dividing by the largest real or
    imaginary part when the plain norm overflows or falls below 1e-12, and
    the backing array is frozen.
    """

    n: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"qubit count must be positive, got {self.n}")
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.n + 1,):
            raise ValueError(
                f"expected {self.n + 1} amplitudes for n={self.n}, got shape {amps.shape}"
            )
        with np.errstate(over="ignore"):
            norm = np.linalg.norm(amps)
        if not isfinite(norm) or norm < _NORM_TOL:
            if not np.isfinite(amps).all():
                raise ValueError("amplitudes must be finite")
            # the squares overflow or underflow: bring the largest component to 1 first
            scale = max(np.abs(amps.real).max(), np.abs(amps.imag).max())
            if scale == 0.0:
                raise ValueError("amplitude vector is zero")
            if scale < np.finfo(float).tiny:  # 1/scale overflows
                amps, scale = amps * 2.0**1000, scale * 2.0**1000
            amps = amps / scale
            norm = np.linalg.norm(amps)
        amps = amps / norm
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)


@dataclass(frozen=True, eq=False)
class MajoranaPolynomial:
    """Polynomial of a symmetric state, coefficients by ascending power."""

    coefficients: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=complex)
        if coeffs.ndim != 1 or coeffs.size < 2:
            raise ValueError("need at least two coefficients")
        coeffs = coeffs.copy()
        coeffs.setflags(write=False)
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def n(self) -> int:
        return self.coefficients.size - 1

    @property
    def support(self) -> tuple[int, int]:
        """Lowest and highest power whose coefficient clears
        :data:`LEADING_COEFF_TOL` times the largest, (0, 0) for the zero
        polynomial; the one rule for exact roots at 0 and at infinity."""
        mags = np.abs(self.coefficients)
        above = np.flatnonzero(mags > LEADING_COEFF_TOL * mags.max())
        return (int(above[0]), int(above[-1])) if above.size else (0, 0)

    @property
    def degree(self) -> int:
        """Highest power of :attr:`support`: n minus the roots at infinity."""
        return self.support[1]


def from_dicke(n: int, amplitudes) -> SymmetricState:
    """Build a normalized symmetric state from n+1 Dicke amplitudes; an ``n``
    that is no integer, such as 2.7 or "2", raises ``TypeError``."""
    return SymmetricState(operator.index(n), np.asarray(amplitudes, dtype=complex))


@lru_cache(maxsize=64)
def binomial_factors(n: int) -> np.ndarray:
    """sqrt(binom(n, k)) for k = 0..n as floats, read-only (cached per n).

    Each binomial is rounded to float before the root; a numpy array of the
    exact integers overflows int64 from n = 68 on.
    """
    factors = np.sqrt([float(comb(n, k)) for k in range(n + 1)])
    factors.setflags(write=False)
    return factors


def majorana_polynomial(state: SymmetricState) -> MajoranaPolynomial:
    """Polynomial with coefficient sqrt(binom(n, k)) * a_{k-s} on alpha^k."""
    return MajoranaPolynomial(binomial_factors(state.n) * state.amplitudes)


def state_from_polynomial(poly: MajoranaPolynomial) -> SymmetricState:
    """Recover the state by dividing out the binomial factors."""
    return from_dicke(poly.n, poly.coefficients / binomial_factors(poly.n))


def _monic_from_roots(roots: np.ndarray) -> np.ndarray:
    """Ascending coefficients of the monic product of (x - r) over ``roots``.

    The factors are multiplied as a balanced tree: roots sorted, factor i
    paired with factor i + m, an odd one out folded into the first product
    (numpy's ``polyfromroots`` tree, so the same bits).  Multiplying one
    factor at a time instead cost the roots of jittered lattice states at
    n = 16..32 about 2.6 digits of residual.
    """
    if roots.size == 0:
        return np.ones(1)
    factors = list(np.stack([-np.sort(roots), np.ones_like(roots)], axis=1))
    while len(factors) > 1:
        m, odd = divmod(len(factors), 2)
        tmp = [np.convolve(factors[i], factors[i + m]) for i in range(m)]
        if odd:
            tmp[0] = np.convolve(tmp[0], factors[-1])
        factors = tmp
    return factors[0]


def state_from_roots(points: Sequence[RiemannPoint]) -> SymmetricState:
    """Symmetric state whose polynomial root multiset is ``points``.

    Expands the monic product over the finite points; each point at infinity
    lowers the polynomial degree by one instead of contributing a factor.
    ``OverflowError`` when a coefficient of that product is beyond floats.
    """
    n = len(points)
    if n == 0:
        raise ValueError("empty root multiset")
    finite = np.array([p.value for p in points if not p.is_infinite], dtype=complex)
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[: finite.size + 1] = _monic_from_roots(finite)
    if not np.isfinite(coeffs).all():
        raise OverflowError(f"the polynomial of these {n} points overflows a float")
    return state_from_polynomial(MajoranaPolynomial(coeffs))
